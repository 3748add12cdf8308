/**
 * @file
 * Two-Level Adaptive Branch Predictor (Yeh and Patt, MICRO-24 1991)
 * for the conventional machine: a global branch history register
 * indexing a pattern history table of 2-bit counters, plus a
 * set-associative BTB for taken targets and indirect jumps, plus a
 * return address stack.
 */

#ifndef BSISA_PREDICT_TWOLEVEL_HH
#define BSISA_PREDICT_TWOLEVEL_HH

#include <cstdint>
#include <vector>

#include "support/sat_counter.hh"

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

/** Scheme name for reports. */
const char *predictorSchemeName(PredictorScheme scheme);

/** Prediction statistics. */
struct PredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

    double
    accuracy() const
    {
        return lookups ? 1.0 - double(mispredicts) / double(lookups)
                       : 1.0;
    }
};

/**
 * Conventional two-level predictor.  The unit of prediction is a
 * branch PC; targets are opaque 64-bit tokens (the timing model uses
 * static block ids encoded as addresses).
 */
class TwoLevelPredictor
{
  public:
    explicit TwoLevelPredictor(const PredictorConfig &config);

    /** Predict the direction of the conditional branch at @p pc. */
    bool predictTaken(std::uint64_t pc) const;

    /**
     * Multiple-prediction support (trace caches need several
     * predictions per cycle): predict using @p specHist as the
     * history, then shift the PREDICTED bit into it.  Seed specHist
     * from speculativeHistory() and chain calls; when predictions are
     * right, indices line up with the later update()s exactly.
     */
    bool predictTakenSpec(std::uint64_t pc,
                          std::uint64_t &specHist) const;

    /** Starting point for a speculative-history chain at @p pc. */
    std::uint64_t
    speculativeHistory(std::uint64_t pc) const
    {
        return historyFor(pc);
    }

    /** True for GAg/GAs (one shared history register). */
    bool usesGlobalHistory() const;

    /** Train direction state and shift one history bit. */
    void update(std::uint64_t pc, bool taken);

    /** Predicted target token for @p pc, or ~0 on BTB miss. */
    std::uint64_t predictTarget(std::uint64_t pc) const;

    /** Install/refresh the target token for @p pc. */
    void updateTarget(std::uint64_t pc, std::uint64_t target);

    /** Call/return address stack (modelled as unbounded). */
    void pushReturn(std::uint64_t token);
    /** Pop; returns ~0 when empty. */
    std::uint64_t popReturn();

    const PredictorConfig &config() const { return cfg; }

  private:
    PredictorConfig cfg;
    std::uint64_t historyMask;
    /** One entry for global schemes, historyEntries for PA*. */
    std::vector<std::uint64_t> histories;
    std::vector<SatCounter> pht;

    std::uint64_t &historyFor(std::uint64_t pc);
    std::uint64_t historyFor(std::uint64_t pc) const;
    struct BtbEntry
    {
        std::uint64_t tag = ~0ull;
        std::uint64_t target = ~0ull;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };
    std::vector<BtbEntry> btb;
    /** btbEntries / btbAssoc - 1 (set count asserted power of two),
     *  so set selection is a mask instead of a division. */
    std::uint64_t btbSetMask;
    std::uint64_t btbClock = 0;
    std::vector<std::uint64_t> ras;

    std::size_t phtIndex(std::uint64_t pc) const;
    const BtbEntry *btbLookup(std::uint64_t pc) const;
};

} // namespace bsisa

#endif // BSISA_PREDICT_TWOLEVEL_HH
