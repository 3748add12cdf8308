/**
 * @file
 * Fetch source for the block-structured machine.
 *
 * Walks the committed basic-block stream (a replayed ExecTrace) and
 * groups it into atomic blocks by descending each
 * enlargement head's variant trie along the *actual* branch
 * directions.  The block successor predictor chooses which variant the
 * machine fetches; a compatible (prefix) choice commits directly —
 * possibly a shallower block than the maximal one, wasting fetch
 * bandwidth but costing no squash — while an incompatible choice is a
 * misprediction whose resolving operation is either the previous
 * block's trap (wrong direction / wrong head) or the first divergent
 * fault inside the wrongly fetched block (wrong variant, the costly
 * case the paper highlights: good work is discarded and re-executed).
 */

#ifndef BSISA_SIM_BSA_SOURCE_HH
#define BSISA_SIM_BSA_SOURCE_HH

#include <algorithm>

#include "codegen/layout.hh"
#include "core/bsa.hh"
#include "predict/blockpred.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

class BsaFetchSource : public FetchSource
{
  public:
    /** Replay @p trace of bsa.src.  @p decoded is
     *  DecodedProgram::forBsa(@p bsa), owned by the caller so a batch
     *  shares one copy. */
    BsaFetchSource(const BsaModule &bsa, const MachineConfig &config,
                   const ExecTrace &trace,
                   const DecodedProgram &decoded);

    /** Lookahead window depth: the unit at stream position pos sees
     *  events [pos, pos + min(lookahead, eventCount - pos)). */
    static constexpr std::size_t lookahead = 64;

    bool next(TimingUnit &unit) override;

    std::uint64_t predictions() const override { return nPredictions; }
    std::uint64_t mispredicts() const override
    {
        return nTrapMiss + nFaultMiss;
    }
    std::uint64_t trapMispredicts() const override { return nTrapMiss; }
    std::uint64_t faultMispredicts() const override
    {
        return nFaultMiss;
    }
    std::uint64_t cascadeHops() const override { return nCascadeHops; }

  private:
    const BsaModule &bsa;
    const Module &module;
    const DecodedProgram &decoded;
    const ExecTrace &trace;
    bool perfect;
    BlockPredictor predictor;

    /** First unconsumed trace event. */
    std::size_t pos = 0;

    /** Successor block the predictor chose for the upcoming head
     *  (invalidId on the first unit / after Halt). */
    AtomicBlockId predictedNext = invalidId;

    /** Redirect info describing how the upcoming unit gets fetched. */
    RedirectInfo pendingRedirect;

    std::uint64_t nPredictions = 0;
    std::uint64_t nTrapMiss = 0;
    std::uint64_t nFaultMiss = 0;
    std::uint64_t nCascadeHops = 0;

    /** Events in the lookahead window (0 at end of stream). */
    std::size_t
    windowSize() const
    {
        return std::min(lookahead, trace.eventCount - pos);
    }

    /** Event @p i of the lookahead window. */
    const TraceEvent &
    event(std::size_t i) const
    {
        return trace.events[pos + i];
    }

    /**
     * Greedy maximal walk of (func, head)'s trie against the actual
     * directions in the lookahead window.
     * @return emitted trie node index; eventsUsed is the number of
     *         window events the variant covers.
     */
    int maximalVariant(FuncId func, BlockId head,
                       unsigned &eventsUsed) const;

    /** True iff @p block's merge path matches the window events
     *  (i.e. fetching it would commit without any fault firing). */
    bool compatible(AtomicBlockId block, FuncId func,
                    BlockId head) const;

    /** Index of @p block within @p trie's emitted list. */
    static unsigned variantIndex(const HeadTrie &trie,
                                 AtomicBlockId block);

    /** Predict the successor of the just-emitted block and set up
     *  predictedNext/pendingRedirect for the next unit. */
    void predictSuccessor(AtomicBlockId committed,
                          const TraceEvent &lastEvent);
};

} // namespace bsisa

#endif // BSISA_SIM_BSA_SOURCE_HH
