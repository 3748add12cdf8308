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

#include "predict/tables.hh"
#include "support/sat_counter.hh"

namespace bsisa
{

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
        return history.historyFor(pc);
    }

    /** True for GAg/GAs (one shared history register). */
    bool
    usesGlobalHistory() const
    {
        return !usesPerAddressHistory(cfg.scheme);
    }

    /** Train direction state and shift one history bit. */
    void update(std::uint64_t pc, bool taken);

    /** Predicted target token for @p pc, or ~0 on BTB miss. */
    std::uint64_t predictTarget(std::uint64_t pc) const;

    /** Install/refresh the target token for @p pc. */
    void updateTarget(std::uint64_t pc, std::uint64_t target);

    ReturnStack &returnStack() { return returns; }

    const PredictorConfig &config() const { return cfg; }

  private:
    struct BtbEntry
    {
        std::uint64_t tag;
        std::uint64_t target;
    };

    PredictorConfig cfg;
    HistoryTable history;
    std::vector<SatCounter> pht;
    Btb<BtbEntry> btb;
    ReturnStack returns;
};

} // namespace bsisa

#endif // BSISA_PREDICT_TWOLEVEL_HH
