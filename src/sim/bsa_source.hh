/**
 * @file
 * The block-structured machine's fetch walk — the one implementation
 * of the block successor predictor — and the fetch source that reads
 * it.
 *
 * The walk groups the committed basic-block stream (a replayed
 * ExecTrace) into atomic blocks by descending each enlargement head's
 * variant trie along the *actual* branch directions.  The block
 * successor predictor chooses which variant the machine fetches; a
 * compatible (prefix) choice commits directly — possibly a shallower
 * block than the maximal one, wasting fetch bandwidth but costing no
 * squash — while an incompatible choice is a misprediction whose
 * resolving operation is either the previous block's trap (wrong
 * direction / wrong head) or the first divergent fault inside the
 * wrongly fetched block (wrong variant, the costly case the paper
 * highlights: good work is discarded and re-executed).
 *
 * It is split in two so a lockstep batch (sim/lockstep.cc) shares the
 * config-independent half:
 *
 *   - BsaTranslation, one per (BsaModule, trace): the maximal-variant
 *     trie walk, its variant index and stream compatibility, the
 *     consumed event count and the address span of each stream
 *     position, memoised over one capture window, plus each block's
 *     successor tries hoisted out of the hash maps;
 *   - BsaFetchWalker, one per predictor identity: the predictor, the
 *     stream cursor and the pending redirect.  captureStep() advances
 *     it one unit, appending the unit's FetchOutcomeRecord (and sparse
 *     redirect) to a FetchOutcomeStream (sim/fetch_outcome.hh).
 *
 * BsaFetchSource is the one-walker reader over it (WalkFetchSource,
 * sim/fetch_outcome.hh).
 */

#ifndef BSISA_SIM_BSA_SOURCE_HH
#define BSISA_SIM_BSA_SOURCE_HH

#include <algorithm>
#include <vector>

#include "core/bsa.hh"
#include "predict/blockpred.hh"
#include "sim/fetch_outcome.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

/**
 * The config-independent translation of a replayed stream into atomic
 * blocks, shared by every walker over that stream.
 *
 * The memo covers the positions one capture window can touch: a
 * window [begin, begin + fetchCaptureWindow) commits units starting
 * inside it and predicts their successors up to lookahead events
 * past its end.  startWindow() slides it, carrying those last entries
 * over, so each position is still computed at most once and the memo
 * counters do not depend on the window size.
 */
class BsaTranslation
{
  public:
    /** @p decoded is DecodedProgram::forBsa(@p bsa), owned by the
     *  caller so a batch shares one copy. */
    BsaTranslation(const BsaModule &bsa, const DecodedProgram &decoded,
                   const ExecTrace &trace);

    /** Lookahead window depth: the unit at stream position pos sees
     *  events [pos, pos + min(lookahead, eventCount - pos)). */
    static constexpr std::size_t lookahead = 64;

    /** The translation of one stream position, computed on first
     *  touch and shared by every walker whose cursor passes it. */
    struct PosMemo
    {
        const HeadTrie *trie = nullptr;  //!< head trie at the position
        AtomicBlockId smax = invalidId;  //!< maximal-variant block
        std::uint32_t varIdx = 0;        //!< smax's canonical variant
        std::uint32_t memCount = 0;      //!< pooled span length (smax)
        std::uint8_t consume = 0;        //!< events smax consumes
        bool compatMax = false; //!< smax passes the stream-compat check
        bool computed = false;
    };

    /** Successor tries of one atomic block's terminator, hoisted out
     *  of the per-(func, head) hash maps.  For Trap terminators
     *  takenTrie/notTakenTrie are the two direction targets and
     *  notTakenSlotBase is the taken side's variant count (the
     *  canonical successor-slot layout puts taken-side variants
     *  first); for Jmp/Call, takenTrie is the sole decodable target. */
    struct BlockAux
    {
        const HeadTrie *takenTrie = nullptr;
        const HeadTrie *notTakenTrie = nullptr;
        unsigned notTakenSlotBase = 0;
    };

    /** Begin capture window [@p begin, begin + fetchCaptureWindow):
     *  0 first, then each window's end in turn. */
    void startWindow(std::size_t begin);

    /** The memoised translation of @p pos, inside the current window
     *  or within lookahead events past its end. */
    const PosMemo &memoAt(std::size_t pos);

    /** True iff @p block's basic blocks, and the edges between them,
     *  are the events from @p pos.  Trap directions are not compared:
     *  at a trap whose two targets coincide, a variant merged across
     *  the other direction passes too. */
    bool compatibleAt(std::size_t pos, AtomicBlockId block,
                      FuncId func, BlockId head) const;

    /** Reconstruct the TimingUnit described by @p rec, redirect
     *  cleared.  Its pointers reach only the trace's address pool and
     *  the DecodedProgram, never stream storage. */
    void buildUnit(const FetchOutcomeRecord &rec, TimingUnit &unit) const;

    /** Events visible at stream position @p pos (0 at end). */
    std::size_t
    availAt(std::size_t pos) const
    {
        return std::min(lookahead, trace.eventCount - pos);
    }

    const BsaModule &bsa;
    const DecodedProgram &decoded;
    const ExecTrace &trace;
    /** Per-atomic-block successor tries, indexed by AtomicBlockId. */
    std::vector<BlockAux> blockAux;

    std::uint64_t memoLookups = 0;   //!< memoAt calls
    std::uint64_t memoComputes = 0;  //!< calls that filled an entry

  private:
    /** Greedy maximal walk of the head trie at @p pos against the
     *  actual directions; returns the emitted trie node index. */
    int maximalVariant(std::size_t pos) const;

    /** Entry i is stream position base + i. */
    std::vector<PosMemo> memo;
    std::size_t base = 0;
};

/**
 * The fetch side of one predictor identity: the block successor
 * predictor, the stream cursor, and the redirect the last prediction
 * left for the next unit.  Prediction is stream-driven — the
 * predictor trains on committed outcomes, never on timing — so one
 * walker serves every lane of a prediction group.
 */
class BsaFetchWalker : public FetchWalkCounters
{
  public:
    using Translation = BsaTranslation;

    BsaFetchWalker(BsaTranslation &translation,
                   const MachineConfig &config);

    /** Advance one unit: choose the commit, append its record (and the
     *  redirect the previous prediction left, if any) to @p out,
     *  consume its events and predict its successor.  Requires
     *  pos < trace.eventCount. */
    void captureStep(FetchOutcomeStream &out);

    std::size_t pos = 0;  //!< first unconsumed trace event

  private:
    /** Predict the successor of the just-committed block and set up
     *  predictedNext/pendingRedirect for the next unit. */
    void predictSuccessor(AtomicBlockId committed,
                          const TraceEvent &lastEvent);

    BsaTranslation *tr;
    bool perfect;
    BlockPredictor predictor;

    /** Successor block the predictor chose for the upcoming head
     *  (invalidId on the first unit / after Halt). */
    AtomicBlockId predictedNext = invalidId;

    /** Redirect info describing how the upcoming unit gets fetched. */
    RedirectInfo pendingRedirect;
};

class BsaFetchSource : public WalkFetchSource<BsaFetchWalker>
{
  public:
    /** Replay @p trace of bsa.src.  @p decoded is
     *  DecodedProgram::forBsa(@p bsa), owned by the caller so a batch
     *  shares one copy. */
    BsaFetchSource(const BsaModule &bsa, const MachineConfig &config,
                   const ExecTrace &trace,
                   const DecodedProgram &decoded)
        : WalkFetchSource(config, bsa, decoded, trace)
    {
    }

    static constexpr std::size_t lookahead = BsaTranslation::lookahead;
};

} // namespace bsisa

#endif // BSISA_SIM_BSA_SOURCE_HH
