/**
 * @file
 * The block-structured ISA successor predictor (section 4.3).
 *
 * This is the paper's three-way modification of the Two-Level Adaptive
 * Branch Predictor:
 *
 *   1. BTB entries are widened to hold all (up to eight) control-flow
 *      successors of an atomic block.  The trap's two explicit targets
 *      are installed on first encounter; the remaining slots fill in
 *      as fault mispredictions reveal them.
 *   2. Each PHT entry holds three 2-bit counters producing a 3-bit
 *      prediction: one bit for the trap direction and two bits
 *      selecting the successor's enlarged variant (equivalently,
 *      predicting the fault operations of the next block).
 *   3. The branch history register shifts by a VARIABLE number of bits
 *      each prediction: the log2 of the block's successor count,
 *      carried by the trap operation, so blocks with few successors do
 *      not flush useful history.
 */

#ifndef BSISA_PREDICT_BLOCKPRED_HH
#define BSISA_PREDICT_BLOCKPRED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "predict/tables.hh"
#include "support/sat_counter.hh"

namespace bsisa
{

/** Successor slots per BTB entry (8 = 2 faults + trap, section 4.2). */
constexpr unsigned btbSuccessorSlots = 8;

class BlockPredictor
{
  public:
    explicit BlockPredictor(const PredictorConfig &config);

    /** A 3-bit structural prediction. */
    struct Prediction
    {
        bool trapTaken = false;
        unsigned variantBits = 0;  //!< 2 bits selecting the variant
    };

    /**
     * Const view of one BTB entry's successor state, captured by
     * probe().  The slot tokens alias predictor storage: the view is
     * valid until the next install(), so read it before training.
     */
    struct BtbView
    {
        const std::uint64_t *succ = nullptr;  //!< slot tokens | null
        std::uint64_t lastSucc = ~0ull;       //!< ~0 when absent
        std::uint8_t knownMask = 0;

        /** Token in @p slot, or ~0 when the entry/slot is unknown. */
        std::uint64_t
        successor(unsigned slot) const
        {
            return (knownMask >> slot) & 1u ? succ[slot] : ~0ull;
        }
    };

    /** Everything probed by the fetch-outcome capture pre-pass. */
    struct Probe
    {
        Prediction pred;
        BtbView btb;
    };

    /**
     * The fetch walk's one lookup: the 3-bit prediction plus the BTB
     * entry view for @p pc, in one PHT index and one BTB set probe.
     */
    Probe probe(std::uint64_t pc) const;

    /**
     * Train the three counters and shift the history register.
     *
     * @param pc Block address.
     * @param actual Actual selection bits.
     * @param succBits History bits to shift (the trap operation's
     *                 successor-count log, section 4.1).
     * @param succIndex Index of the actual successor within the
     *                  block's successor set (the value shifted in).
     */
    void update(std::uint64_t pc, const Prediction &actual,
                unsigned succBits, unsigned succIndex);

    /** Record the actual successor token in slot @p slot. */
    void install(std::uint64_t pc, unsigned slot, std::uint64_t token);

    /** Call/return stack for block-level return-head prediction. */
    ReturnStack &returnStack() { return returns; }

    const PredictorConfig &config() const { return cfg; }

  private:
    struct PhtEntry
    {
        SatCounter trap{2, 1};
        SatCounter variant1{2, 0};
        SatCounter variant0{2, 0};
    };

    struct BtbEntry
    {
        std::uint64_t tag;
        std::array<std::uint64_t, btbSuccessorSlots> succ;
        std::uint8_t knownMask;
        std::uint64_t lastSucc;
    };

    PredictorConfig cfg;
    HistoryTable history;
    std::vector<PhtEntry> pht;
    Btb<BtbEntry> btb;
    ReturnStack returns;
};

} // namespace bsisa

#endif // BSISA_PREDICT_BLOCKPRED_HH
