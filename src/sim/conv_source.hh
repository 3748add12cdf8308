/**
 * @file
 * The conventional machine's fetch walk and the fetch source that
 * reads it: one basic block per cycle, a classic two-level adaptive
 * predictor for trap directions, BTB-predicted indirect jumps, and a
 * return address stack.
 *
 * The walk has the same two halves as the block-structured one
 * (sim/bsa_source.hh), so the lockstep engine and WalkFetchSource
 * (sim/fetch_outcome.hh) run both machines the same way:
 *
 *   - ConvTranslation, one per (Module, trace): the read-only inputs.
 *     The units are the trace events themselves, so there is nothing
 *     to memoise and startWindow() does nothing;
 *   - ConvFetchWalker, one per predictor identity: the predictor, BTB
 *     and return stack, the stream cursor and the pending redirect.
 *     The trace-cache source (sim/tc_source.hh) drives one through
 *     predictSuccessor(), one committed block at a time.
 */

#ifndef BSISA_SIM_CONV_SOURCE_HH
#define BSISA_SIM_CONV_SOURCE_HH

#include <optional>

#include "codegen/layout.hh"
#include "predict/twolevel.hh"
#include "sim/fetch_outcome.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

/** The config-independent inputs of the conventional fetch walk,
 *  shared by every walker over one trace. */
struct ConvTranslation
{
    /** No position memo: these stay zero. */
    static constexpr std::uint64_t memoLookups = 0;
    static constexpr std::uint64_t memoComputes = 0;

    void startWindow(std::size_t) {}

    /** The fetch unit of the event at @p rec.pos: its basic block, as
     *  laid out and decoded, and its memory span; redirect cleared. */
    void
    buildUnit(const FetchOutcomeRecord &rec, TimingUnit &unit) const
    {
        const TraceEvent &e = trace.events[rec.pos];
        unit.pc = layout.addrOf(e.func, e.block);
        unit.bytes = layout.bytesOf(e.func, e.block);
        const DecodedUnit &du = decoded.unit(e.func, e.block);
        unit.ops = decoded.ops(du);
        unit.opCount = du.opCount;
        unit.memAddrs = trace.memAddrs + rec.memOffset;
        unit.memCount = rec.memCount;
        unit.redirect = RedirectInfo{};
    }

    const Module &module;
    const ConvLayout &layout;
    const DecodedProgram &decoded;
    const ExecTrace &trace;
};

/**
 * The fetch side of one predictor identity: the two-level trap
 * predictor, BTB and return stack, the stream cursor, and the redirect
 * the last prediction left for the next unit.
 */
class ConvFetchWalker : public FetchWalkCounters
{
  public:
    using Translation = ConvTranslation;

    ConvFetchWalker(const ConvTranslation &translation,
                    const MachineConfig &config)
        : tr(&translation), perfect(config.perfectPrediction),
          predictor(config.predictor)
    {
    }

    /** Advance one event: append its record (and the redirect the
     *  previous prediction left, if any) to @p out and predict its
     *  successor.  Requires pos < trace.eventCount. */
    void captureStep(FetchOutcomeStream &out);

    /**
     * Predict the successor of trace event @p i: the one conventional
     * prediction step.  Trains the predictor, counts, and fills
     * pendingRedirect for the next unit.  A trap direction the caller
     * has already predicted (a trace cache's lookahead) comes in
     * @p trapDir, so the fetch decision and its validation use one
     * prediction; @p opBase counts the ops fetched ahead of event
     * i's block in its unit and offsets the redirect's resolveOpIdx.
     */
    void predictSuccessor(std::size_t i,
                          std::optional<bool> trapDir = std::nullopt,
                          unsigned opBase = 0);

    bool perfectPrediction() const { return perfect; }
    const TwoLevelPredictor &directionPredictor() const
    {
        return predictor;
    }

    std::size_t pos = 0;  //!< next trace event (one unit per event)
    /** Left by the last prediction for the next unit's fetch. */
    RedirectInfo pendingRedirect;

  private:
    const ConvTranslation *tr;
    bool perfect;
    TwoLevelPredictor predictor;
};

class ConvFetchSource : public WalkFetchSource<ConvFetchWalker>
{
  public:
    /** Replay @p trace.  @p decoded is DecodedProgram::forModule of
     *  @p module, owned by the caller so a batch shares one copy. */
    ConvFetchSource(const Module &module, const ConvLayout &layout,
                    const MachineConfig &config, const ExecTrace &trace,
                    const DecodedProgram &decoded)
        : WalkFetchSource(config, module, layout, decoded, trace)
    {
    }
};

} // namespace bsisa

#endif // BSISA_SIM_CONV_SOURCE_HH
