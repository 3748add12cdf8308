/**
 * @file
 * Fetch walkers, their decoupled fetch-outcome streams, and the
 * one-walker fetch source.
 *
 * Prediction is purely stream-driven: predictors train on committed
 * outcomes, never on timing, so a prediction group's entire fetch side
 * — which unit commits at each stream position, whether the fetch was
 * redirected, and where the unit's committed memory addresses live —
 * is a pure function of (predictor identity, stream position).  Each
 * machine therefore has one fetch walker (ConvFetchWalker,
 * BsaFetchWalker): the predictor state of one identity, a stream
 * cursor and the pending redirect, whose captureStep() advances one
 * unit and appends one compact FetchOutcomeRecord to a
 * FetchOutcomeStream.  The lockstep engine (sim/lockstep.hh) runs one
 * walker per prediction group in a pre-pass and drives the timing
 * lanes off the recorded outcomes as plain data, so lanes from
 * *different* prediction groups whose streams coincide at a position
 * can step as one full-width op-major batch, the per-lane redirect
 * rows gathered from the groups' streams.  WalkFetchSource, below,
 * runs one walker and serves next() from its records, so each
 * machine's fetch walk has exactly one implementation.
 *
 * A walker type W provides:
 *   - W::Translation, the read-only state shared by every walker over
 *     one trace: its `trace`, startWindow(begin), buildUnit(record,
 *     unit) and the memoLookups / memoComputes counters;
 *   - a W(Translation &, const MachineConfig &) constructor;
 *   - `pos`, the first unconsumed trace event, captureStep(stream),
 *     and the FetchWalkCounters.
 *
 * Records are indexed by fetch step; redirects are sparse (mispredicts
 * only) and stored side-by-side with the step index they attach to, so
 * a clean-running group costs 16 bytes per fetch step and nothing per
 * redirect.  RedirectInfo's wrong-path pointers reference the shared
 * DecodedProgram, which outlives the walk, so storing them is safe;
 * a unit's committed addresses are one slice of the trace's address
 * pool (the ExecTrace span-adjacency invariant), stored as an offset.
 *
 * Both readers capture in fixed windows of fetchCaptureWindow trace
 * events: every walker records the steps starting inside the window,
 * the reader consumes them, and the streams are cleared (keeping
 * their capacity) before the next window.  Stream memory is therefore
 * bounded by groups x window whatever the trace length.
 */

#ifndef BSISA_SIM_FETCH_OUTCOME_HH
#define BSISA_SIM_FETCH_OUTCOME_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

/** Trace events per capture window (see reserveWindow below). */
constexpr std::size_t fetchCaptureWindow = std::size_t(1) << 12;

/**
 * One fetch step of a prediction group: the committed unit identity
 * and its memory span.  `committed` is walker-defined: the atomic
 * block on the block-structured machine, the event's basic block on
 * the conventional one.  Records of different groups at one position
 * with equal `committed` describe the same unit, so the lockstep walk
 * fuses them into one batch.
 */
struct FetchOutcomeRecord
{
    std::uint32_t pos;        //!< stream position the unit starts at
    std::uint32_t committed;  //!< committed unit id (walker-defined)
    std::uint32_t memOffset;  //!< span start in the trace pool
    std::uint32_t memCount;   //!< span length
};

/**
 * The fetch-outcome stream of one predictor identity over the current
 * capture window: the per-step records and the sparse redirect list
 * (redirects[i] applies to fetch step redirectStep[i]; both ascend).
 */
struct FetchOutcomeStream
{
    std::vector<FetchOutcomeRecord> steps;
    std::vector<RedirectInfo> redirects;      //!< mispredicts only
    std::vector<std::uint32_t> redirectStep;  //!< parallel step index

    /** Reserve one window's exact bound — at most one step and one
     *  redirect per trace event — so a capture walk never allocates.
     *  Oracle predictors never redirect.  Records hold positions and
     *  pool offsets in 32 bits, which every trace fits
     *  (maxTraceEntries). */
    void
    reserveWindow(const ExecTrace &trace, bool withRedirects)
    {
        const std::size_t window =
            std::min(fetchCaptureWindow, trace.eventCount);
        steps.reserve(window);
        if (withRedirects) {
            redirects.reserve(window);
            redirectStep.reserve(window);
        }
    }

    /** Drop the window's contents, keeping the capacity. */
    void
    clear()
    {
        steps.clear();
        redirects.clear();
        redirectStep.clear();
    }
};

/**
 * The one-walker reader: a fetch source that runs a single walker,
 * captures one window of its records at a time and serves next()
 * from them.  The singleton, OoO and fuzz paths replay a config this
 * way, through the same walk the lockstep engine runs per group.
 */
template <class Walker>
class WalkFetchSource : public FetchSource
{
  public:
    using Translation = typename Walker::Translation;

    /** @p args construct the translation. */
    template <class... Args>
    explicit WalkFetchSource(const MachineConfig &config,
                             const Args &...args)
        : translation{args...}, walker(translation, config)
    {
        // Exact window bounds keep next() allocation-free.
        stream.reserveWindow(translation.trace,
                             !config.perfectPrediction);
    }

    /** The walker points at this object's translation. */
    WalkFetchSource(const WalkFetchSource &) = delete;
    WalkFetchSource &operator=(const WalkFetchSource &) = delete;

    bool
    next(TimingUnit &unit) override
    {
        if (nextStep == stream.steps.size()) {
            const std::size_t eventCount = translation.trace.eventCount;
            if (walker.pos >= eventCount)
                return false;
            // Capture the next window of the walk.
            translation.startWindow(windowEnd);
            windowEnd =
                std::min(eventCount, windowEnd + fetchCaptureWindow);
            stream.clear();
            nextStep = 0;
            nextRedirect = 0;
            while (walker.pos < windowEnd)
                walker.captureStep(stream);
        }

        translation.buildUnit(stream.steps[nextStep], unit);
        if (nextRedirect < stream.redirectStep.size() &&
            stream.redirectStep[nextRedirect] == nextStep)
            unit.redirect = stream.redirects[nextRedirect++];
        ++nextStep;
        return true;
    }

    FetchWalkCounters counters() const override { return walker; }

  private:
    Translation translation;
    Walker walker;
    /** The current window's records, and the read cursors. */
    FetchOutcomeStream stream;
    std::size_t nextStep = 0;
    std::size_t nextRedirect = 0;
    /** End of the last captured window. */
    std::size_t windowEnd = 0;
};

/**
 * Instrumentation of the most recent lockstep run on this thread
 * (filled by the engine behind lockstepConventional and
 * lockstepBlockStructured): group and batching shape, memoization
 * effectiveness (zero on the conventional machine, which has no
 * position memo), and the wall-clock split between the fetch pre-pass
 * and the timing walk (summed over the capture windows).  Intended
 * for tests (memo hit-rate and batch-width asserts), the bench
 * harnesses and perfbench's traced run; not part of any result
 * contract.
 */
struct LockstepFetchStats
{
    std::uint64_t groups = 0;        //!< prediction groups
    std::uint64_t lanes = 0;         //!< lanes after dedup
    std::uint64_t fetchSteps = 0;    //!< records produced (all groups)
    std::uint64_t timingBatches = 0; //!< stepBatch calls issued
    std::uint64_t timingLaneSteps = 0;  //!< sum of batch widths
    std::uint64_t maxBatchLanes = 0;    //!< widest batch issued
    std::uint64_t memoLookups = 0;   //!< per-position memo queries
    std::uint64_t memoComputes = 0;  //!< queries that had to compute
    /** Cross-group fused walk ran.  Always true (it is the engine's
     *  only walk); kept because perfbench's sim.lockstep.fused_ratio
     *  reads it. */
    bool fused = false;
    double fetchSeconds = 0.0;       //!< pre-pass wall clock
    double timingSeconds = 0.0;      //!< timing-walk wall clock
};

/** Stats of the latest lockstep replay run on the calling thread. */
const LockstepFetchStats &lockstepLastFetchStats();

/** Mutable access for the drivers (thread-local storage). */
LockstepFetchStats &lockstepFetchStatsSlot();

} // namespace bsisa

#endif // BSISA_SIM_FETCH_OUTCOME_HH
