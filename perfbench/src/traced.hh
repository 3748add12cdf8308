/**
 * @file
 * Traced rebuilds of the benchmark's workloads.
 *
 * Each function here re-does what one figure driver or the sweep
 * service does, from the same public layer entry points, in the same
 * order and with the same parallelFor fan-out, wrapping every layer
 * call in a Span and counting its work.  The rebuilt outputs are
 * checked against the same goldens as the untraced pass, which is
 * what proves a rebuild still matches its driver.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "exp/figures.hh"
#include "spans.hh"

namespace perfbench
{

/** Sums over SimResults, for the model.* statistics. */
struct SimTotals
{
    std::uint64_t cycles = 0;
    std::uint64_t retiredOps = 0;
    std::uint64_t retiredUnits = 0;
    std::uint64_t predictions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t stallRedirect = 0;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t icacheMisses = 0;

    void add(const bsisa::SimResult &r);
};

/** Work counted at the layer boundaries during a traced run. */
struct LayerCounters
{
    std::mutex mutex;  //!< guards every field below
    std::uint64_t capturedOps = 0;
    std::uint64_t writeBytes = 0;
    std::uint64_t convPipelineOps = 0;
    double convPipelineSeconds = 0.0;
    std::uint64_t bsaPipelineOps = 0;
    double bsaPipelineSeconds = 0.0;
    std::uint64_t oooOps = 0;
    std::uint64_t lockstepRuns = 0;
    std::uint64_t lockstepFusedRuns = 0;
    std::uint64_t lockstepLaneOps = 0;
    double lockstepPrepassSeconds = 0.0;
    double lockstepWalkSeconds = 0.0;
    std::uint64_t lockstepBatches = 0;
    std::uint64_t lockstepLaneSteps = 0;
    std::uint64_t memoLookups = 0;
    std::uint64_t memoComputes = 0;
    std::uint64_t planUnits = 0;
    std::uint64_t appends = 0;
    SimTotals conv;
    SimTotals bsa;
    /** Cycles of paired (conv, bsa) results only. */
    std::uint64_t pairConvCycles = 0;
    std::uint64_t pairBsaCycles = 0;

    void addPair(const bsisa::PairResult &r);
};

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Sixteen lowercase hex digits (the sweep service's file naming). */
std::string hex16(std::uint64_t v);

/** Fill the BSISA_TRACE_DIR store with the suite's full-budget traces
 *  (generate, digest, load), visiting benchmarks in @p order. */
void fillSuiteStore(const std::vector<std::size_t> &order,
                    LayerCounters &counters);

/** Table 2 rebuilt; returns the driver's outcomes. */
std::vector<bsisa::BenchOutcome> tracedTable2(LayerCounters &counters);

/** Figures 3/4 (@p blockSizes false) or 5 (true) rebuilt, rendered to
 *  @p os through the same render function as the driver. */
std::vector<bsisa::BenchOutcome>
tracedPairFigure(std::ostream &os, bool perfectPrediction,
                 bool blockSizes, LayerCounters &counters);

/** Figures 6/7 rebuilt; returns the driver's rows. */
std::vector<bsisa::IcacheSweepRow>
tracedIcacheSweep(bool blockStructured, LayerCounters &counters);

/** runSweepCoordinator with one in-process worker, rebuilt (spec
 *  parse included).  False when the sweep did not complete. */
bool tracedSweep(const std::string &specPath,
                 const std::string &storeDir, LayerCounters &counters);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
