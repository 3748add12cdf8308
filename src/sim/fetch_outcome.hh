/**
 * @file
 * Decoupled fetch-outcome streams for the lockstep sweep engine.
 *
 * Prediction is purely stream-driven: predictors train on committed
 * outcomes, never on timing, so a prediction group's entire fetch side
 * — which block commits at each stream position, whether the fetch was
 * redirected, and where the unit's committed memory addresses live —
 * is a pure function of (predictor identity, stream position).  The
 * lockstep drivers exploit this by running the predictor/fetch side of
 * each distinct predictor configuration exactly ONCE over the trace in
 * a pre-pass, recording one compact FetchOutcomeRecord per fetch step
 * into a FetchOutcomeStream, and then driving the timing lanes off the
 * recorded outcomes as plain data.  Because the timing phase no longer
 * interleaves with prediction, lanes from *different* prediction
 * groups whose streams coincide at a position can step as one
 * full-width op-major batch — the per-lane redirect rows are gathered
 * from the groups' streams instead of queried live (the exact analogue
 * of the shared committed-order dcache stream of PR 5).
 *
 * Records are indexed by fetch step; redirects are sparse (mispredicts
 * only) and stored side-by-side with the step index they attach to, so
 * a clean-running group costs 16 bytes per fetch step and nothing per
 * redirect.  RedirectInfo's wrong-path pointers reference the shared
 * DecodedProgram, which outlives the engine, so storing them is safe;
 * a unit's committed addresses are one slice of the trace's address
 * pool (the ExecTrace span-adjacency invariant), stored as an offset.
 *
 * The drivers capture in fixed windows of fetchCaptureWindow trace
 * events: every group records the steps starting inside the window,
 * the timing walk consumes them, and the streams are cleared (keeping
 * their capacity) before the next window.  Stream memory is therefore
 * bounded by groups x window whatever the trace length.  The single-
 * config BsaFetchSource reads the same records from one stream, so
 * the BSA fetch walk (sim/bsa_source.hh) has exactly one
 * implementation.
 */

#ifndef BSISA_SIM_FETCH_OUTCOME_HH
#define BSISA_SIM_FETCH_OUTCOME_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fetch_source.hh"

namespace bsisa
{

/** Trace events per capture window (see reserveWindow below). */
constexpr std::size_t fetchCaptureWindow = std::size_t(1) << 12;

/**
 * One fetch step of a prediction group: the committed unit identity
 * and its memory span.  `committed` is an AtomicBlockId for the
 * block-structured driver; the conventional driver's units are the
 * trace events themselves, so it stores no per-step records at all
 * (only the sparse redirects below).
 */
struct FetchOutcomeRecord
{
    std::uint32_t pos;        //!< stream position the unit starts at
    std::uint32_t committed;  //!< committed block id (driver-defined)
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
     *  Conventional streams store no steps; oracle predictors never
     *  redirect. */
    void
    reserveWindow(std::size_t eventCount, bool withSteps,
                  bool withRedirects)
    {
        const std::size_t window = std::min(fetchCaptureWindow, eventCount);
        if (withSteps)
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
 * Instrumentation of the most recent lockstep run on this thread
 * (filled by lockstepConventional / lockstepBlockStructured): group
 * and batching shape, memoization effectiveness, and the wall-clock
 * split between the fetch pre-pass and the timing kernel (summed over
 * the capture windows).  Intended for tests (memo hit-rate and
 * batch-width asserts), the bench harnesses and perfbench's traced
 * run; not part of any result contract.
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
    /** Cross-group fused walk ran.  Always true for both replay
     *  drivers (it is their only walk); kept because perfbench's
     *  sim.lockstep.fused_ratio reads it. */
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
