/**
 * @file
 * Sweep-spec parser, config-key vocabulary, canonicalisation, and
 * the RunConfig digest: one row per RunConfig field (rows)
 * drives key parsing, range checks, canonical spelling and the digest.
 *
 * The accepted grammar is the YAML subset the experiment specs need:
 *
 *   - `#` starts a comment (outside quoted strings); blank lines are
 *     ignored; indentation is spaces (tabs are an error).
 *   - A block is either a map (`key: value` / `key:` + indented
 *     block) or a list (`- value` lines at one indent level).
 *   - Flow values: plain scalars, `"quoted strings"`, inline lists
 *     `[a, b, c]`, and inline maps `{k: v, k2: v2}` of scalars.
 *
 * Anchors, multi-document streams, block scalars, and nested flow
 * collections are deliberately out of scope.
 */

#include "exp/spec.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "arch/reg.hh"
#include "exp/plan.hh"
#include "predict/tables.hh"
#include "support/digest.hh"
#include "support/parse.hh"
#include "workloads/specmix.hh"
#include "workloads/synth.hh"

namespace bsisa
{

namespace
{

/** Most work units (points per benchmark x benchmarks) a spec may
 *  define: at about 2 s per 128 units this is hours of simulation,
 *  and it bounds the validation walk and the plan's memory. */
constexpr std::uint64_t maxSpecWorkUnits = std::uint64_t(1) << 20;

/** @p a x @p b, saturating at the largest 64-bit value. */
std::uint64_t
saturatingMul(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t product;
    return __builtin_mul_overflow(a, b, &product)
               ? std::numeric_limits<std::uint64_t>::max()
               : product;
}

// ---------------------------------------------------------------
// Generic node tree (the YAML-subset surface syntax).

struct SpecNode
{
    enum class Kind { Scalar, Map, List };
    Kind kind = Kind::Scalar;
    std::string scalar;
    std::vector<std::pair<std::string, SpecNode>> map;
    std::vector<SpecNode> list;
};

std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Split flow-collection contents on top-level commas. */
bool
splitFlowItems(const std::string &body, std::vector<std::string> &out,
               std::string &error)
{
    out.clear();
    int depth = 0;
    bool quoted = false;
    std::string cur;
    for (char c : body) {
        if (quoted) {
            cur.push_back(c);
            if (c == '"')
                quoted = false;
            continue;
        }
        if (c == '"') {
            quoted = true;
            cur.push_back(c);
        } else if (c == '[' || c == '{') {
            ++depth;
            cur.push_back(c);
        } else if (c == ']' || c == '}') {
            --depth;
            cur.push_back(c);
        } else if (c == ',' && depth == 0) {
            out.push_back(trimmed(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (quoted || depth != 0) {
        error = "unterminated quote or bracket in flow value";
        return false;
    }
    const std::string last = trimmed(cur);
    if (!last.empty())
        out.push_back(last);
    else if (!out.empty()) {
        error = "trailing comma in flow value";
        return false;
    }
    return true;
}

bool parseFlow(const std::string &text, SpecNode &out,
               std::string &error);

bool
parseFlowScalar(const std::string &text, SpecNode &out,
                std::string &error)
{
    out = SpecNode{};
    if (!text.empty() && text.front() == '"') {
        if (text.size() < 2 || text.back() != '"') {
            error = "unterminated quoted string";
            return false;
        }
        const std::string body = text.substr(1, text.size() - 2);
        if (body.find('"') != std::string::npos) {
            error = "embedded quote in quoted string";
            return false;
        }
        out.scalar = body;
        return true;
    }
    if (text.empty()) {
        error = "empty value";
        return false;
    }
    out.scalar = text;
    return true;
}

bool
parseFlow(const std::string &text, SpecNode &out, std::string &error)
{
    out = SpecNode{};
    if (!text.empty() && text.front() == '[') {
        if (text.back() != ']') {
            error = "unterminated inline list";
            return false;
        }
        out.kind = SpecNode::Kind::List;
        std::vector<std::string> items;
        if (!splitFlowItems(text.substr(1, text.size() - 2), items,
                            error))
            return false;
        for (const std::string &item : items) {
            SpecNode child;
            if (!parseFlowScalar(item, child, error))
                return false;
            out.list.push_back(std::move(child));
        }
        return true;
    }
    if (!text.empty() && text.front() == '{') {
        if (text.back() != '}') {
            error = "unterminated inline map";
            return false;
        }
        out.kind = SpecNode::Kind::Map;
        std::vector<std::string> items;
        if (!splitFlowItems(text.substr(1, text.size() - 2), items,
                            error))
            return false;
        for (const std::string &item : items) {
            const std::size_t colon = item.find(':');
            if (colon == std::string::npos) {
                error = "inline map entry without ':': " + item;
                return false;
            }
            const std::string key = trimmed(item.substr(0, colon));
            SpecNode child;
            if (key.empty() ||
                !parseFlowScalar(trimmed(item.substr(colon + 1)),
                                 child, error))
                return false;
            out.map.emplace_back(key, std::move(child));
        }
        return true;
    }
    return parseFlowScalar(text, out, error);
}

/** One logical line: indent width + comment-stripped content. */
struct SpecLine
{
    std::size_t indent;
    std::string text;
    std::size_t number;  //!< 1-based, for error messages
};

bool
splitLines(const std::string &text, std::vector<SpecLine> &out,
           std::string &error)
{
    std::istringstream in(text);
    std::string raw;
    std::size_t number = 0;
    while (std::getline(in, raw)) {
        ++number;
        // Strip comments outside quotes.
        bool quoted = false;
        std::string content;
        for (char c : raw) {
            if (c == '"')
                quoted = !quoted;
            if (c == '#' && !quoted)
                break;
            content.push_back(c);
        }
        std::size_t indent = 0;
        while (indent < content.size() && content[indent] == ' ')
            ++indent;
        if (indent < content.size() && content[indent] == '\t') {
            error = "line " + std::to_string(number) +
                    ": tab indentation is not supported";
            return false;
        }
        const std::string body = trimmed(content);
        if (body.empty())
            continue;
        out.push_back(SpecLine{indent, body, number});
    }
    return true;
}

class BlockParser
{
  public:
    BlockParser(std::vector<SpecLine> lines) : lines(std::move(lines))
    {
    }

    bool
    parse(SpecNode &out, std::string &error)
    {
        if (lines.empty()) {
            error = "empty spec";
            return false;
        }
        if (!parseBlock(lines[0].indent, out, error))
            return false;
        if (pos < lines.size()) {
            error = lineMsg("unexpected indentation");
            return false;
        }
        return true;
    }

  private:
    std::string
    lineMsg(const std::string &what) const
    {
        const std::size_t n =
            pos < lines.size() ? lines[pos].number : 0;
        return "line " + std::to_string(n) + ": " + what;
    }

    bool
    isListItem(const SpecLine &line) const
    {
        return line.text == "-" ||
               (line.text.size() >= 2 && line.text[0] == '-' &&
                line.text[1] == ' ');
    }

    bool
    parseBlock(std::size_t indent, SpecNode &out, std::string &error)
    {
        out = SpecNode{};
        if (lines[pos].indent != indent) {
            error = lineMsg("inconsistent indentation");
            return false;
        }
        const bool list = isListItem(lines[pos]);
        out.kind = list ? SpecNode::Kind::List : SpecNode::Kind::Map;
        while (pos < lines.size() && lines[pos].indent == indent) {
            const SpecLine &line = lines[pos];
            if (isListItem(line) != list) {
                error = lineMsg("mixed list and map entries");
                return false;
            }
            if (list) {
                SpecNode item;
                if (!parseFlow(trimmed(line.text.substr(1)), item,
                               error))
                    return false;
                out.list.push_back(std::move(item));
                ++pos;
                continue;
            }
            const std::size_t colon = line.text.find(':');
            if (colon == std::string::npos) {
                error = lineMsg("expected 'key: value'");
                return false;
            }
            const std::string key = trimmed(line.text.substr(0, colon));
            const std::string rest = trimmed(line.text.substr(colon + 1));
            if (key.empty()) {
                error = lineMsg("empty key");
                return false;
            }
            for (const auto &kv : out.map) {
                if (kv.first == key) {
                    error = lineMsg("duplicate key '" + key + "'");
                    return false;
                }
            }
            ++pos;
            SpecNode child;
            if (!rest.empty()) {
                if (!parseFlow(rest, child, error))
                    return false;
            } else {
                if (pos >= lines.size() ||
                    lines[pos].indent <= indent) {
                    error = lineMsg("key '" + key +
                                    "' has no value or nested block");
                    return false;
                }
                if (!parseBlock(lines[pos].indent, child, error))
                    return false;
            }
            out.map.emplace_back(key, std::move(child));
        }
        if (pos < lines.size() && lines[pos].indent > indent) {
            error = lineMsg("unexpected indentation");
            return false;
        }
        return true;
    }

    std::vector<SpecLine> lines;
    std::size_t pos = 0;
};

// ---------------------------------------------------------------
// Config fields: one row per RunConfig field.

/** Converts to any field type: T{AnyField{}...} compiles for up to
 *  as many initialisers as aggregate T has fields. */
struct AnyField
{
    template <typename T> operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

// Tripwire for the rows below: adding a field to any struct the rows
// cover fails the build here.  Append the field's row (and its
// mutation in SweepPlan_.ConfigDigestIsFieldSensitive), then update
// the count.
static_assert(fieldCount<RunConfig>() == 4);
static_assert(fieldCount<MachineConfig>() == 12);
static_assert(fieldCount<CacheConfig>() == 4);
static_assert(fieldCount<PredictorConfig>() == 6);
static_assert(fieldCount<OooParams>() == 5);
static_assert(fieldCount<EnlargeConfig>() == 7);
static_assert(fieldCount<Interp::Limits>() == 2);

template <typename T>
constexpr ConfigKeyKind
kindOf()
{
    if constexpr (std::is_same_v<T, bool>)
        return ConfigKeyKind::Bool;
    else if constexpr (std::is_same_v<T, double>)
        return ConfigKeyKind::Double;
    else if constexpr (std::is_same_v<T, PredictorScheme>)
        return ConfigKeyKind::Scheme;
    else if constexpr (std::is_same_v<T, TimingModel>)
        return ConfigKeyKind::Model;
    else
        return ConfigKeyKind::U64;
}

/** @p row, completed for the field that @p ref (config -> field
 *  reference) reaches. */
template <auto ref>
constexpr ConfigField
field(ConfigField row = {})
{
    using T =
        std::remove_cvref_t<decltype(ref(std::declval<RunConfig &>()))>;
    constexpr ConfigKeyKind kind = kindOf<T>();
    row.kind = kind;
    if constexpr (kind == ConfigKeyKind::U64)
        row.fieldMax = std::numeric_limits<T>::max() / row.scale;
    row.get = [](const RunConfig &c) -> std::uint64_t {
        if constexpr (kind == ConfigKeyKind::Double)
            return std::bit_cast<std::uint64_t>(ref(c));
        else
            return std::uint64_t(ref(c));
    };
    row.set = [](RunConfig &c, std::uint64_t v) {
        if constexpr (kind == ConfigKeyKind::Double)
            ref(c) = std::bit_cast<double>(v);
        else
            ref(c) = T(v);
    };
    return row;
}

/** The OoO rename map pins one physical register per architectural
 *  slot plus the dump slot and needs at least one spare; its indices
 *  are uint16_t (sim/ooo/rat.hh). */
constexpr std::uint64_t minPhysRegs = numArchRegs + 2;
constexpr std::uint64_t maxPhysRegs = 65536;

/** The OoO engine allocates its ROB, stations and LSQ at their full
 *  size when it starts, so their keys share the register file's cap. */
constexpr std::uint64_t maxOooEntries = 65536;

/** The front-end depth and the L2 latency each lengthen the span of
 *  cycles past the fetch cycle that every IssueSlots calendar must
 *  cover, and IssueSlots::grow allocates and zero-fills that span.
 *  At this cap both together stay within the calendar's first
 *  4096-cycle ring. */
constexpr std::uint64_t maxLatencyCycles = 1024;

/** splitOversizedBlocks' floor: a split block keeps one op and a
 *  jump. */
constexpr std::uint64_t minBlockOps = 2;

/**
 * Every RunConfig field in digest-slot order.  The order is part of
 * every stored unit key: a new field's row goes at the end, and a
 * removed field leaves a retired row in its slot.
 */
constexpr ConfigField rows[] = {
    field<[](auto &c) -> auto & { return c.machine.issueWidth; }>(
        {"issue_width", 1, maxIssueWidth}),
    field<[](auto &c) -> auto & { return c.machine.windowOps; }>(
        {"window_ops"}),
    field<[](auto &c) -> auto & { return c.machine.windowUnits; }>(
        {"window_units", 1}),
    field<[](auto &c) -> auto & { return c.machine.frontendDepth; }>(
        {"frontend_depth", 0, maxLatencyCycles}),
    field<[](auto &c) -> auto & { return c.machine.redirectPenalty; }>(
        {"redirect_penalty"}),
    field<[](auto &c) -> auto & { return c.machine.l2Latency; }>(
        {"l2_latency", 0, maxLatencyCycles}),
    field<[](auto &c) -> auto & { return c.machine.icache.sizeBytes; }>(
        {.key = "icache_kb", .scale = 1024}),
    field<[](auto &c) -> auto & { return c.machine.icache.assoc; }>(
        {"icache_assoc"}),
    field<[](auto &c) -> auto & { return c.machine.icache.lineBytes; }>(),
    field<[](auto &c) -> auto & { return c.machine.icache.perfect; }>(
        {"icache_perfect"}),
    field<[](auto &c) -> auto & { return c.machine.dcache.sizeBytes; }>(
        {.key = "dcache_kb", .scale = 1024}),
    field<[](auto &c) -> auto & { return c.machine.dcache.assoc; }>(
        {"dcache_assoc"}),
    field<[](auto &c) -> auto & { return c.machine.dcache.lineBytes; }>(),
    field<[](auto &c) -> auto & { return c.machine.dcache.perfect; }>(
        {"dcache_perfect"}),
    field<[](auto &c) -> auto & { return c.machine.predictor.scheme; }>(
        {"predictor_scheme"}),
    field<[](auto &c) -> auto & {
        return c.machine.predictor.historyBits;
    }>({"history_bits"}),
    field<[](auto &c) -> auto & { return c.machine.predictor.phtBits; }>(
        {"pht_bits"}),
    field<[](auto &c) -> auto & {
        return c.machine.predictor.historyEntries;
    }>({"history_entries"}),
    field<[](auto &c) -> auto & {
        return c.machine.predictor.btbEntries;
    }>({"btb_entries"}),
    field<[](auto &c) -> auto & {
        return c.machine.predictor.btbAssoc;
    }>({"btb_assoc"}),
    // Retired (PredictorConfig::perfect): the slot hashes a constant,
    // so no stored unit key moves.
    {.get = [](const RunConfig &) -> std::uint64_t { return 0; }},
    field<[](auto &c) -> auto & { return c.machine.perfectPrediction; }>(
        {"perfect_prediction"}),
    field<[](auto &c) -> auto & { return c.enlarge.maxOps; }>(
        {"enlarge_max_ops", minBlockOps}),
    field<[](auto &c) -> auto & { return c.enlarge.maxFaults; }>(
        {"enlarge_max_faults"}),
    field<[](auto &c) -> auto & {
        return c.enlarge.mergeAcrossBackEdges;
    }>({"merge_across_back_edges"}),
    field<[](auto &c) -> auto & {
        return c.enlarge.enlargeLibraryFunctions;
    }>({"enlarge_library_functions"}),
    field<[](auto &c) -> auto & { return c.enlarge.enabled; }>(
        {"enlarge_enabled"}),
    // Pruning stops at one variant, the head alone.
    field<[](auto &c) -> auto & { return c.enlarge.maxVariantsPerHead; }>(
        {"max_variants_per_head", 1}),
    field<[](auto &c) -> auto & { return c.enlarge.minMergeBias; }>(),
    field<[](auto &c) -> auto & { return c.limits.maxOps; }>(
        {.key = "max_ops", .toolOnly = true}),
    field<[](auto &c) -> auto & { return c.limits.maxBlocks; }>(),
    field<[](auto &c) -> auto & { return c.minMergeBias; }>(
        {"min_merge_bias"}),
    field<[](auto &c) -> auto & { return c.machine.timingModel; }>(
        {"timing_model"}),
    field<[](auto &c) -> auto & { return c.machine.ooo.robOps; }>(
        {"rob_ops", 1, maxOooEntries}),
    field<[](auto &c) -> auto & { return c.machine.ooo.physRegs; }>(
        {"phys_regs", minPhysRegs, maxPhysRegs}),
    field<[](auto &c) -> auto & { return c.machine.ooo.rsPerClass; }>(
        {"rs_per_class", 1, maxOooEntries}),
    field<[](auto &c) -> auto & { return c.machine.ooo.lsqEntries; }>(
        {"lsq_entries", 1, maxOooEntries}),
    field<[](auto &c) -> auto & { return c.machine.ooo.commitWidth; }>(
        {"commit_width", 1}),
};

// The 37 fields counted above plus the retired slot.
static_assert(std::size(rows) == 38);

const ConfigField *
findField(const std::string &key)
{
    for (const ConfigField &f : rows)
        if (f.key && key == f.key)
            return &f;
    return nullptr;
}

/** Timing-model spellings, by ordinal. */
constexpr const char *timingModelNames[] = {"abstract", "ooo"};

/** Parse @p text as @p f's key value, into the field's encoding. */
bool
parseFieldValue(const ConfigField &f, const std::string &text,
                std::uint64_t &raw, std::string &error)
{
    const auto fail = [&](const std::string &expected) {
        error = std::string(f.key) + ": expected " + expected +
                ", got '" + text + "'";
        return false;
    };
    switch (f.kind) {
      case ConfigKeyKind::U64: {
        std::uint64_t v = 0;
        if (!parseNumber(text, v))
            return fail("an unsigned integer");
        if (v < f.min && f.max == ~0ull)
            return fail("at least " + std::to_string(f.min));
        if (v < f.min || v > f.upper())
            return fail("an integer in [" + std::to_string(f.min) +
                        ", " + std::to_string(f.upper()) + "]");
        raw = v * f.scale;
        return true;
      }
      case ConfigKeyKind::Bool:
        if (text != "true" && text != "false")
            return fail("true or false");
        raw = text == "true";
        return true;
      case ConfigKeyKind::Double: {
        // A NaN is not equal to itself, so neither is its config.
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || errno != 0 ||
            end != text.c_str() + text.size() || !std::isfinite(v))
            return fail("a finite number");
        raw = std::bit_cast<std::uint64_t>(v);
        return true;
      }
      case ConfigKeyKind::Scheme:
        for (PredictorScheme s :
             {PredictorScheme::GAg, PredictorScheme::GAs,
              PredictorScheme::PAg, PredictorScheme::PAs}) {
            if (text == predictorSchemeName(s)) {
                raw = std::uint64_t(s);
                return true;
            }
        }
        return fail("GAg/GAs/PAg/PAs");
      case ConfigKeyKind::Model:
        for (raw = 0; raw < std::size(timingModelNames); ++raw)
            if (text == timingModelNames[raw])
                return true;
        return fail("abstract or ooo");
    }
    return fail("a known kind");
}

/** The canonical spelling of @p f's value in the field's encoding. */
std::string
renderFieldValue(const ConfigField &f, std::uint64_t raw)
{
    switch (f.kind) {
      case ConfigKeyKind::U64:
        return std::to_string(raw / f.scale);
      case ConfigKeyKind::Bool:
        return raw ? "true" : "false";
      case ConfigKeyKind::Double: {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::bit_cast<double>(raw));
        return buf;
      }
      case ConfigKeyKind::Scheme:
        return predictorSchemeName(PredictorScheme(raw));
      case ConfigKeyKind::Model:
        return timingModelNames[raw];
    }
    return "";
}

/** Normalize one spec assignment's value to its canonical spelling;
 *  false on a key spec files do not take or a bad value. */
bool
canonicalConfigValue(const std::string &key, const std::string &value,
                     std::string &canonical, std::string &error)
{
    const ConfigField *f = findField(key);
    if (!f || f->toolOnly) {
        error = "unknown config key '" + key + "'";
        return false;
    }
    std::uint64_t raw = 0;
    if (!parseFieldValue(*f, value, raw, error))
        return false;
    canonical = renderFieldValue(*f, raw);
    return true;
}

// ---------------------------------------------------------------
// Interpretation of the node tree into a SweepSpec.

/** Validate + canonicalise an assignment list; sorts by key. */
bool
interpretAssigns(const SpecNode &node, const char *what,
                 std::vector<SpecAssign> &out, std::string &error)
{
    if (node.kind != SpecNode::Kind::Map) {
        error = std::string(what) + ": expected a map of config keys";
        return false;
    }
    out.clear();
    for (const auto &kv : node.map) {
        if (kv.second.kind != SpecNode::Kind::Scalar) {
            error = std::string(what) + "." + kv.first +
                    ": expected a scalar value";
            return false;
        }
        std::string canonical;
        if (!canonicalConfigValue(kv.first, kv.second.scalar,
                                  canonical, error))
            return false;
        out.emplace_back(kv.first, canonical);
    }
    std::sort(out.begin(), out.end());
    for (std::size_t i = 1; i < out.size(); ++i) {
        if (out[i].first == out[i - 1].first) {
            error = std::string(what) + ": duplicate key '" +
                    out[i].first + "'";
            return false;
        }
    }
    return true;
}

bool
interpretSpec(const SpecNode &root, SweepSpec &spec, std::string &error)
{
    if (root.kind != SpecNode::Kind::Map) {
        error = "spec must be a top-level map";
        return false;
    }
    spec = SweepSpec{};
    bool sawBenchmarks = false;
    for (const auto &kv : root.map) {
        const std::string &key = kv.first;
        const SpecNode &node = kv.second;
        if (key == "name") {
            if (node.kind != SpecNode::Kind::Scalar ||
                node.scalar.empty()) {
                error = "name: expected a non-empty scalar";
                return false;
            }
            spec.name = node.scalar;
        } else if (key == "scale" || key == "budget_div" ||
                   key == "chunk_units") {
            std::uint64_t &field = key == "scale"        ? spec.scale
                                   : key == "budget_div" ? spec.budgetDiv
                                                         : spec.chunkUnits;
            if (node.kind != SpecNode::Kind::Scalar ||
                !parseNumber(node.scalar, field)) {
                error = key + ": expected an unsigned integer";
                return false;
            }
            // Scale is a divisor; an explicit zero is always a mistake
            // (omit the key to get the default).
            if (key == "scale" && field == 0) {
                error = "scale must be >= 1";
                return false;
            }
        } else if (key == "figure") {
            if (node.kind != SpecNode::Kind::Scalar ||
                (node.scalar != "none" && node.scalar != "cycles" &&
                 node.scalar != "blocksize")) {
                error = "figure: expected none, cycles, or blocksize";
                return false;
            }
            spec.figure = node.scalar;
        } else if (key == "benchmarks") {
            sawBenchmarks = true;
            std::vector<std::string> names;
            if (node.kind == SpecNode::Kind::Scalar) {
                names.push_back(node.scalar);
            } else if (node.kind == SpecNode::Kind::List) {
                for (const SpecNode &item : node.list) {
                    if (item.kind != SpecNode::Kind::Scalar) {
                        error = "benchmarks: expected scalar names";
                        return false;
                    }
                    names.push_back(item.scalar);
                }
            } else {
                error = "benchmarks: expected a name or list of names";
                return false;
            }
            const auto suite = specint95Suite();
            for (const std::string &name : names) {
                if (name == "suite") {
                    for (const SpecBenchmark &b : suite)
                        spec.benchmarks.push_back(b.params.name);
                    continue;
                }
                const bool known = std::any_of(
                    suite.begin(), suite.end(),
                    [&](const SpecBenchmark &b) {
                        return name == b.params.name;
                    });
                if (!known) {
                    error = "benchmarks: unknown benchmark '" + name +
                            "'";
                    return false;
                }
                spec.benchmarks.push_back(name);
            }
            std::vector<std::string> seen;
            for (const std::string &name : spec.benchmarks) {
                if (std::find(seen.begin(), seen.end(), name) !=
                    seen.end()) {
                    error = "benchmarks: duplicate benchmark '" + name +
                            "'";
                    return false;
                }
                seen.push_back(name);
            }
        } else if (key == "base") {
            if (!interpretAssigns(node, "base", spec.base, error))
                return false;
        } else if (key == "axes") {
            if (node.kind != SpecNode::Kind::Map) {
                error = "axes: expected a map of key -> value list";
                return false;
            }
            for (const auto &axis : node.map) {
                if (axis.second.kind != SpecNode::Kind::List ||
                    axis.second.list.empty()) {
                    error = "axes." + axis.first +
                            ": expected a non-empty value list";
                    return false;
                }
                std::vector<std::string> values;
                for (const SpecNode &item : axis.second.list) {
                    if (item.kind != SpecNode::Kind::Scalar) {
                        error = "axes." + axis.first +
                                ": expected scalar values";
                        return false;
                    }
                    std::string canonical;
                    if (!canonicalConfigValue(axis.first, item.scalar,
                                              canonical, error))
                        return false;
                    values.push_back(canonical);
                }
                for (const auto &prev : spec.axes) {
                    if (prev.first == axis.first) {
                        error = "axes: duplicate axis '" + axis.first +
                                "'";
                        return false;
                    }
                }
                spec.axes.emplace_back(axis.first, std::move(values));
            }
        } else if (key == "points") {
            if (node.kind != SpecNode::Kind::List) {
                error = "points: expected a list of config maps";
                return false;
            }
            for (const SpecNode &item : node.list) {
                std::vector<SpecAssign> point;
                if (!interpretAssigns(item, "points", point, error))
                    return false;
                spec.points.push_back(std::move(point));
            }
        } else {
            error = "unknown top-level key '" + key + "'";
            return false;
        }
    }

    if (spec.name.empty()) {
        error = "spec is missing 'name'";
        return false;
    }
    if (!sawBenchmarks || spec.benchmarks.empty()) {
        error = "spec is missing 'benchmarks'";
        return false;
    }
    if (spec.budgetDiv == 0) {
        error = "budget_div must be >= 1";
        return false;
    }
    if (std::vector<PlanBench> benches;
        !planBenches(spec, benches, error))
        return false;
    // Count the work before enumerating any config: the walk below
    // and the plan visit every point.  Each axis holds a value, so the
    // count is at least one.
    const std::uint64_t units =
        saturatingMul(spec.pointsPerBenchmark(), spec.benchmarks.size());
    if (units > maxSpecWorkUnits) {
        error = "spec defines " +
                (units == std::numeric_limits<std::uint64_t>::max()
                     ? std::string("2^64 or more")
                     : std::to_string(units)) +
                " work units (configs x benchmarks), more than the " +
                std::to_string(maxSpecWorkUnits) + " allowed";
        return false;
    }
    if (spec.figure != "none" && spec.pointsPerBenchmark() != 1) {
        error = "figure '" + spec.figure +
                "' needs exactly one config per benchmark (got " +
                std::to_string(spec.pointsPerBenchmark()) + ")";
        return false;
    }
    // Every config of the grid must be one the tables can build and
    // the pipeline can run, over the suite's basic blocks, which
    // enlargement never splits.
    return forEachSpecConfig(
        spec, RunConfig{},
        [&](const RunConfig &config) {
            if (config.enlarge.maxOps < suiteBlockOps) {
                error = "enlarge_max_ops: expected at least " +
                        std::to_string(suiteBlockOps) +
                        " (the suite's largest basic block), got '" +
                        std::to_string(config.enlarge.maxOps) + "'";
                return false;
            }
            return checkConfigGeometry(config, error);
        },
        error);
}

} // namespace

std::uint64_t
SweepSpec::effectiveScale() const
{
    return scale == 0 ? specScaleDivisor : scale;
}

std::uint64_t
SweepSpec::pointsPerBenchmark() const
{
    std::uint64_t grid = 1;
    for (const auto &axis : axes)
        grid = saturatingMul(grid, axis.second.size());
    if (axes.empty())
        grid = points.empty() ? 1 : 0;
    std::uint64_t total;
    return __builtin_add_overflow(grid, points.size(), &total)
               ? std::numeric_limits<std::uint64_t>::max()
               : total;
}

bool
parseSweepSpec(const std::string &text, SweepSpec &out,
               std::string &error)
{
    std::vector<SpecLine> lines;
    if (!splitLines(text, lines, error))
        return false;
    SpecNode root;
    BlockParser parser(std::move(lines));
    if (!parser.parse(root, error))
        return false;
    return interpretSpec(root, out, error);
}

bool
parseSweepSpecFile(const std::string &path, SweepSpec &out,
                   std::string &error)
{
    std::string text;
    if (!readWholeFile(path, text)) {
        error = "cannot open spec file: " + path;
        return false;
    }
    return parseSweepSpec(text, out, error);
}

std::string
canonicalSpec(const SweepSpec &spec)
{
    std::ostringstream os;
    os << "name: " << spec.name << "\n";
    os << "scale: " << spec.effectiveScale() << "\n";
    os << "budget_div: " << spec.budgetDiv << "\n";
    os << "chunk_units: " << spec.chunkUnits << "\n";
    os << "figure: " << spec.figure << "\n";
    os << "benchmarks: [";
    for (std::size_t i = 0; i < spec.benchmarks.size(); ++i)
        os << (i ? ", " : "") << spec.benchmarks[i];
    os << "]\n";

    const auto renderAssigns = [&](const std::vector<SpecAssign> &as) {
        os << "{";
        for (std::size_t i = 0; i < as.size(); ++i)
            os << (i ? ", " : "") << as[i].first << ": "
               << as[i].second;
        os << "}";
    };
    os << "base: ";
    renderAssigns(spec.base);
    os << "\n";

    if (spec.axes.empty()) {
        os << "axes: {}\n";
    } else {
        os << "axes:\n";
        for (const auto &axis : spec.axes) {
            os << "  " << axis.first << ": [";
            for (std::size_t i = 0; i < axis.second.size(); ++i)
                os << (i ? ", " : "") << axis.second[i];
            os << "]\n";
        }
    }

    if (spec.points.empty()) {
        os << "points: []\n";
    } else {
        os << "points:\n";
        for (const auto &point : spec.points) {
            os << "  - ";
            renderAssigns(point);
            os << "\n";
        }
    }
    return os.str();
}

std::uint64_t
specDigest(const SweepSpec &spec)
{
    const std::string canonical = canonicalSpec(spec);
    return Fnv1a64()
        .bytes(canonical.data(), canonical.size())
        .u64(sweepSpecVersion)
        .value();
}

std::span<const ConfigField>
configFields()
{
    return rows;
}

bool
applyConfigKey(RunConfig &config, const std::string &key,
               const std::string &value, std::string &error)
{
    const ConfigField *f = findField(key);
    if (!f) {
        error = "unknown config key '" + key + "'";
        return false;
    }
    std::uint64_t raw = 0;
    if (!parseFieldValue(*f, value, raw, error))
        return false;
    f->set(config, raw);
    return true;
}

std::uint64_t
runConfigDigest(const RunConfig &config)
{
    // Every field in slot order, fixed width.  The figure drivers'
    // pair-result memo and every stored unit key rest on it; the
    // tripwires above fail the build while a field has no row.
    Fnv1a64 h;
    for (const ConfigField &f : rows)
        h.u64(f.get(config));
    return h.value();
}

bool
checkConfigGeometry(const RunConfig &config, std::string &error)
{
    const auto fail = [&](const char *key, std::uint64_t got,
                          const std::string &expected) {
        error = std::string(key) + ": expected " + expected +
                ", got '" + std::to_string(got) + "'";
        return false;
    };
    const MachineConfig &m = config.machine;
    const struct
    {
        const CacheConfig &cache;
        const char *kbKey;
        const char *assocKey;
    } caches[] = {{m.icache, "icache_kb", "icache_assoc"},
                  {m.dcache, "dcache_kb", "dcache_assoc"}};
    for (const auto &[cache, kbKey, assocKey] : caches) {
        switch (cache.geometryFault()) {
          case SetGeometryFault::Ways:
            return fail(assocKey, cache.assoc, "at least 1");
          case SetGeometryFault::Sets:
            return fail(kbKey, cache.sizeBytes / 1024,
                        "a size that fills a power-of-two number of " +
                            std::to_string(cache.assoc) + "-way sets of " +
                            std::to_string(cache.lineBytes) +
                            "-byte lines");
          case SetGeometryFault::None:
            break;
        }
    }
    const PredictorConfig &p = m.predictor;
    switch (predictorGeometryFault(p)) {
      case PredictorGeometryFault::BtbWays:
        return fail("btb_assoc", p.btbAssoc, "at least 1");
      case PredictorGeometryFault::BtbSets:
        return fail("btb_entries", p.btbEntries,
                    "a count that fills a power-of-two number of " +
                        std::to_string(p.btbAssoc) + "-way sets");
      case PredictorGeometryFault::HistoryEntries:
        return fail("history_entries", p.historyEntries,
                    "a power of two");
      case PredictorGeometryFault::HistoryBits:
        return fail("history_bits", p.historyBits,
                    "at most " + std::to_string(maxHistoryBits));
      case PredictorGeometryFault::PhtBits:
        return fail("pht_bits", p.phtBits,
                    "at most " + std::to_string(maxPhtBits));
      case PredictorGeometryFault::None:
        break;
    }
    // The window must hold the largest block fetch can deliver.
    if (m.windowOps < config.enlarge.maxOps)
        return fail("window_ops", m.windowOps,
                    "at least enlarge_max_ops (" +
                        std::to_string(config.enlarge.maxOps) + ")");
    return true;
}

bool
forEachSpecConfig(const SweepSpec &spec, const RunConfig &base,
                  const std::function<bool(const RunConfig &)> &visit,
                  std::string &error)
{
    RunConfig grid = base;
    for (const SpecAssign &assign : spec.base) {
        if (!applyConfigKey(grid, assign.first, assign.second, error))
            return false;
    }

    if (!spec.axes.empty()) {
        // Cross-product, first axis outermost (odometer order).
        std::uint64_t count = 1;
        for (const auto &axis : spec.axes)
            count *= axis.second.size();
        for (std::uint64_t n = 0; n < count; ++n) {
            RunConfig config = grid;
            std::uint64_t rem = n;
            for (std::size_t a = spec.axes.size(); a-- > 0;) {
                const auto &axis = spec.axes[a];
                const std::size_t pick = rem % axis.second.size();
                rem /= axis.second.size();
                if (!applyConfigKey(config, axis.first,
                                    axis.second[pick], error))
                    return false;
            }
            if (!visit(config))
                return false;
        }
    } else if (spec.points.empty()) {
        if (!visit(grid))
            return false;
    }

    for (const auto &point : spec.points) {
        RunConfig config = grid;
        for (const SpecAssign &assign : point) {
            if (!applyConfigKey(config, assign.first, assign.second,
                                error))
                return false;
        }
        if (!visit(config))
            return false;
    }
    return true;
}

} // namespace bsisa
