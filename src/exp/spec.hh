/**
 * @file
 * Declarative sweep specifications for the experiment service.
 *
 * A spec file names a benchmark set, a base machine configuration, a
 * config grid (axis cross-products plus explicit points), and the
 * figure to render from the results.  The syntax is a small YAML
 * subset (see parseSpecText for the exact grammar) — enough to write
 * the paper's grids by hand, small enough to parse with no
 * dependencies.
 *
 * Every spec canonicalises to a normalized text form (fixed field
 * order, normalized scalar spellings, sorted map keys where order is
 * not semantic) and is digested via support/digest.hh; the digest is
 * the spec's identity in plan markers and status output, so two
 * spellings of the same experiment — reordered keys, comments,
 * different whitespace — share one identity, while any semantic
 * change (an axis value, the scale, a benchmark) produces a new one.
 */

#ifndef BSISA_EXP_SPEC_HH
#define BSISA_EXP_SPEC_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hh"

namespace bsisa
{

/** Version of the spec grammar + canonical form (digest component). */
constexpr std::uint32_t sweepSpecVersion = 1;

/** One `key: value` assignment of config-grid text. */
using SpecAssign = std::pair<std::string, std::string>;

/** A parsed, validated sweep specification. */
struct SweepSpec
{
    std::string name;

    /** Divisor applied to the paper's Table-2 instruction counts
     *  (the spec-file analog of BSISA_SCALE). */
    std::uint64_t scale = 0;  //!< 0 = specScaleDivisor default

    /** Extra budget divisor on top of scale (the ablation drivers
     *  run at 1/4 budget; specs express that here). */
    std::uint64_t budgetDiv = 1;

    /** Benchmark names, suite order; "suite" in the file expands to
     *  all eight. */
    std::vector<std::string> benchmarks;

    /** Figure rendered from the results: "none", "cycles"
     *  (figures 3/4), or "blocksize" (figure 5). */
    std::string figure = "none";

    /** Base config overrides, sorted by key (order has no meaning). */
    std::vector<SpecAssign> base;

    /** Grid axes in file order (order defines grid enumeration:
     *  first axis outermost).  Each axis is (key, values). */
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;

    /** Explicit extra grid points, file order, each sorted by key. */
    std::vector<std::vector<SpecAssign>> points;

    /** Work-unit chunk size (0 = one chunk per benchmark).  Kept
     *  canonical for the specs that set it; a sweep runs its whole
     *  plan as one PairSweep whatever it is. */
    std::uint64_t chunkUnits = 0;

    /** The effective scale divisor. */
    std::uint64_t effectiveScale() const;

    /** Grid points per benchmark (axis cross-product + points),
     *  saturating at the largest 64-bit value. */
    std::uint64_t pointsPerBenchmark() const;
};

/**
 * Parse and validate spec text.  Returns false with a one-line
 * message in @p error on any syntax or semantic problem (unknown
 * key, unknown benchmark, unparsable value, empty grid...).
 */
bool parseSweepSpec(const std::string &text, SweepSpec &out,
                    std::string &error);

/** parseSweepSpec over a file's contents. */
bool parseSweepSpecFile(const std::string &path, SweepSpec &out,
                        std::string &error);

/** The canonical text form (also valid spec input). */
std::string canonicalSpec(const SweepSpec &spec);

/** Identity digest: canonical text + sweepSpecVersion. */
std::uint64_t specDigest(const SweepSpec &spec);

/** What a config key's value spells: an unsigned integer, true or
 *  false, a number, a predictor scheme or a timing model. */
enum class ConfigKeyKind
{
    U64,
    Bool,
    Double,
    Scheme,
    Model,
};

/**
 * One RunConfig field: its config key, if any, and any bound tighter
 * than the field's type; the rest follows from the type.  get and set
 * carry the value as runConfigDigest hashes it: integers and enum
 * ordinals as they are, booleans as 0 or 1, doubles by bit pattern.  A
 * U64 key's value is the field divided by scale (a `_kb` key counts
 * KiB of a byte field).
 */
struct ConfigField
{
    const char *key = nullptr;  //!< nullptr: no key, code sets the field
    std::uint64_t min = 0;
    std::uint64_t max = ~0ull;  //!< ~0: what the field holds
    std::uint64_t scale = 1;
    /** applyConfigKey takes the key, spec files do not (`max_ops`, the
     *  trace budget: a spec's budget is its scale). */
    bool toolOnly = false;

    ConfigKeyKind kind = ConfigKeyKind::U64;
    std::uint64_t fieldMax = ~0ull;  //!< the type's maximum, in key units
    std::uint64_t (*get)(const RunConfig &) = nullptr;
    void (*set)(RunConfig &, std::uint64_t) = nullptr;

    /** The largest value the key accepts. */
    std::uint64_t upper() const { return std::min(max, fieldMax); }
};

/** Every RunConfig field in digest-slot order, retired slots (no key,
 *  a constant get) included. */
std::span<const ConfigField> configFields();

/**
 * Apply one config-key assignment to @p config.  Key names are the
 * configFields() vocabulary (issue_width, icache_kb, enlarge_max_ops,
 * predictor_scheme, ...); returns false with @p error set to
 * "<key>: expected ..." on an unknown key, an unparsable value or one
 * outside the key's range.
 */
bool applyConfigKey(RunConfig &config, const std::string &key,
                    const std::string &value, std::string &error);

/**
 * The geometry rules that relate two or more fields of one config: the
 * cache and predictor tables' rule (cache/lru_set_array.hh,
 * predict/tables.hh) and window_ops >= enlarge_max_ops.  False with
 * @p error set against the key of the field at fault.
 */
bool checkConfigGeometry(const RunConfig &config, std::string &error);

/**
 * Call @p visit on each config of @p spec's grid over @p base: the
 * axis cross-product (first axis outermost), or @p base alone when
 * there are neither axes nor points, then the explicit points.
 * Stops at the first visit that returns false.  Also false, with
 * @p error set, on a config-key error.
 */
bool forEachSpecConfig(const SweepSpec &spec, const RunConfig &base,
                       const std::function<bool(const RunConfig &)> &visit,
                       std::string &error);

} // namespace bsisa

#endif // BSISA_EXP_SPEC_HH
