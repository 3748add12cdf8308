/**
 * @file
 * The tables both predictors are built from: the predictor geometry
 * and its rule, the first-level history table of a two-level adaptive
 * predictor (Yeh and Patt, MICRO-24 1991), a BTB over the shared LRU
 * set array, and the return address stack.  Each predictor keeps its
 * own PHT entry type and BTB payload.
 */

#ifndef BSISA_PREDICT_TABLES_HH
#define BSISA_PREDICT_TABLES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/lru_set_array.hh"
#include "support/bitutil.hh"
#include "support/logging.hh"

namespace bsisa
{

/**
 * Two-level scheme taxonomy (Yeh and Patt): the first letter selects
 * the history register source (Global or Per-address), the second how
 * the PHT is indexed (g = history only, s = history hashed with the
 * branch address).
 */
enum class PredictorScheme
{
    GAg,  //!< global history, history-indexed PHT
    GAs,  //!< global history, address-hashed PHT (gshare-style)
    PAg,  //!< per-address history, history-indexed PHT
    PAs,  //!< per-address history, address-hashed PHT
};

/** Scheme name for reports. */
constexpr const char *
predictorSchemeName(PredictorScheme scheme)
{
    constexpr const char *names[] = {"GAg", "GAs", "PAg", "PAs"};
    return names[unsigned(scheme)];
}

constexpr bool
usesPerAddressHistory(PredictorScheme scheme)
{
    return scheme == PredictorScheme::PAg ||
           scheme == PredictorScheme::PAs;
}

constexpr bool
usesAddressHashing(PredictorScheme scheme)
{
    return scheme == PredictorScheme::GAs ||
           scheme == PredictorScheme::PAs;
}

/** Shared predictor geometry. */
struct PredictorConfig
{
    PredictorScheme scheme = PredictorScheme::GAs;
    unsigned historyBits = 12;
    unsigned phtBits = 14;      //!< log2 of PHT entries
    /** History-table entries for the per-address schemes. */
    unsigned historyEntries = 1024;
    unsigned btbEntries = 2048;
    unsigned btbAssoc = 4;

    bool operator==(const PredictorConfig &) const = default;
};

/** A history register is one machine word. */
constexpr unsigned maxHistoryBits = 64;
/** 16M PHT entries (96 MiB of block-predictor counters) at most. */
constexpr unsigned maxPhtBits = 24;

/** Which field makes a predictor geometry unbuildable. */
enum class PredictorGeometryFault
{
    None,
    BtbWays,         //!< btbAssoc is zero
    BtbSets,         //!< btbEntries fill no power-of-two set count
    HistoryEntries,  //!< not a power of two
    HistoryBits,     //!< above maxHistoryBits
    PhtBits,         //!< above maxPhtBits
};

/** The geometry rule both predictors assert and the spec parser
 *  checks: the BTB follows the set-array rule, the history table has
 *  a power-of-two entry count, and both widths stay in bounds. */
inline PredictorGeometryFault
predictorGeometryFault(const PredictorConfig &cfg)
{
    switch (setGeometryFault(cfg.btbEntries, cfg.btbAssoc)) {
      case SetGeometryFault::Ways:
        return PredictorGeometryFault::BtbWays;
      case SetGeometryFault::Sets:
        return PredictorGeometryFault::BtbSets;
      case SetGeometryFault::None:
        break;
    }
    if (!isPowerOfTwo(cfg.historyEntries))
        return PredictorGeometryFault::HistoryEntries;
    if (cfg.historyBits > maxHistoryBits)
        return PredictorGeometryFault::HistoryBits;
    if (cfg.phtBits > maxPhtBits)
        return PredictorGeometryFault::PhtBits;
    return PredictorGeometryFault::None;
}

/** @p cfg, after asserting that its geometry builds. */
inline const PredictorConfig &
checkedPredictorConfig(const PredictorConfig &cfg)
{
    BSISA_ASSERT(predictorGeometryFault(cfg) ==
                 PredictorGeometryFault::None);
    return cfg;
}

/**
 * History registers and the PHT index they form: one register for the
 * global schemes, historyEntries registers selected by pc for the
 * per-address ones.  Shifts take any width, so the block predictor's
 * variable shift (section 4.1) and the one-bit conventional shift use
 * the same register update.
 */
class HistoryTable
{
  public:
    explicit HistoryTable(const PredictorConfig &cfg)
        : historyMask(lowMask(cfg.historyBits)),
          phtMask(lowMask(cfg.phtBits)),
          pcMask(usesAddressHashing(cfg.scheme) ? ~0ull : 0),
          histories(usesPerAddressHistory(cfg.scheme) ? cfg.historyEntries
                                                      : 1)
    {
    }

    /** The history register that predicts @p pc. */
    std::uint64_t
    historyFor(std::uint64_t pc) const
    {
        return histories[slotOf(pc)];
    }

    /** PHT index of @p pc under history @p hist. */
    std::size_t
    phtIndex(std::uint64_t pc, std::uint64_t hist) const
    {
        return (((pc >> 2) & pcMask) ^ hist) & phtMask;
    }

    /** PHT index of @p pc under its own history register. */
    std::size_t
    phtIndex(std::uint64_t pc) const
    {
        return phtIndex(pc, historyFor(pc));
    }

    /** @p hist with the low @p bits of @p value shifted in. */
    std::uint64_t
    shifted(std::uint64_t hist, unsigned bits, std::uint64_t value) const
    {
        return ((hist << bits) | (value & lowMask(bits))) & historyMask;
    }

    /** Shift the low @p bits of @p value into @p pc's register. */
    void
    shift(std::uint64_t pc, unsigned bits, std::uint64_t value)
    {
        std::uint64_t &hist = histories[slotOf(pc)];
        hist = shifted(hist, bits, value);
    }

  private:
    std::uint64_t historyMask;
    std::uint64_t phtMask;
    /** All ones when the PHT index hashes in the address, else 0. */
    std::uint64_t pcMask;
    std::vector<std::uint64_t> histories;

    std::size_t
    slotOf(std::uint64_t pc) const
    {
        return (pc >> 2) & (histories.size() - 1);
    }
};

/** A BTB: the shared LRU set array indexed by pc >> 2, one Entry per
 *  pc, matched on Entry::tag. */
template <typename Entry>
class Btb
{
  public:
    explicit Btb(const PredictorConfig &cfg)
        : ways(cfg.btbEntries, cfg.btbAssoc),
          setMask(cfg.btbEntries / cfg.btbAssoc - 1)
    {
    }

    /** The entry for @p pc, or null; a lookup is not a use. */
    const Entry *
    find(std::uint64_t pc) const
    {
        return ways.find(setOf(pc), tagIs(pc));
    }

    /** Use the way holding @p pc's entry, allocated on a miss. */
    typename LruSetArray<Entry>::Access
    access(std::uint64_t pc)
    {
        return ways.access(setOf(pc), tagIs(pc));
    }

  private:
    LruSetArray<Entry> ways;
    std::uint64_t setMask;

    std::size_t setOf(std::uint64_t pc) const { return (pc >> 2) & setMask; }

    static auto
    tagIs(std::uint64_t pc)
    {
        return [pc](const Entry &e) { return e.tag == pc; };
    }
};

/**
 * Call/return address stack, capped at `capacity` tokens.  A push
 * onto a full stack is dropped, so the stack keeps the oldest frames:
 * past the cap, returns pop the wrong token and the outermost one
 * pops ~0 (no prediction).
 */
class ReturnStack
{
  public:
    static constexpr std::size_t capacity = 4096;

    ReturnStack() { stack.reserve(capacity); }

    void
    push(std::uint64_t token)
    {
        if (stack.size() < capacity)
            stack.push_back(token);
    }

    /** The newest token, removed; ~0 when empty. */
    std::uint64_t
    pop()
    {
        if (stack.empty())
            return ~0ull;
        const std::uint64_t token = stack.back();
        stack.pop_back();
        return token;
    }

  private:
    std::vector<std::uint64_t> stack;
};

} // namespace bsisa

#endif // BSISA_PREDICT_TABLES_HH
