/**
 * @file
 * Experiment runner: one-call timing simulation of a compiled program
 * on the conventional and the block-structured machine, as the paper's
 * evaluation does (section 5: identically configured implementations,
 * same compiler, same functional units, caches, and cycle time).
 */

#ifndef BSISA_EXP_RUNNER_HH
#define BSISA_EXP_RUNNER_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/enlarge.hh"
#include "ir/module.hh"
#include "sim/interp.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

/** Everything one experiment needs. */
struct RunConfig
{
    MachineConfig machine;
    EnlargeConfig enlarge;
    Interp::Limits limits;
    /** Collect a profile first and filter merges by bias (section-6
     *  extension); 0 disables. */
    double minMergeBias = 0.0;

    bool operator==(const RunConfig &) const = default;
};

/** Results for one benchmark under one configuration. */
struct PairResult
{
    SimResult conv;
    SimResult bsa;
    EnlargeStats enlarge;
    std::uint64_t convCodeBytes = 0;
    std::uint64_t bsaCodeBytes = 0;
    std::uint64_t dynOps = 0;  //!< conventional dynamic op count

    bool operator==(const PairResult &) const = default;

    /** Execution-time reduction of BSA relative to conventional. */
    double
    reduction() const
    {
        return conv.cycles
                   ? 1.0 - double(bsa.cycles) / double(conv.cycles)
                   : 0.0;
    }
};

/** Simulate the conventional machine only: captureTrace under
 *  @p limits, then the replay overload below. */
SimResult runConventional(const Module &module,
                          const MachineConfig &machine,
                          Interp::Limits limits);

/** Conventional machine, replaying a captured trace. */
SimResult runConventional(const Module &module,
                          const MachineConfig &machine,
                          const ExecTrace &trace);

/** Simulate the BSA machine only: captureTrace of bsa.src under
 *  @p limits, then the replay overload below. */
SimResult runBlockStructured(const BsaModule &bsa,
                             const MachineConfig &machine,
                             Interp::Limits limits);

/** BSA machine, replaying a captured trace of the source module. */
SimResult runBlockStructured(const BsaModule &bsa,
                             const MachineConfig &machine,
                             const ExecTrace &trace);

/**
 * Full pair: conventional and block-structured on one module.  One
 * functional execution is captured and replayed into both timing
 * models (and the profile and Table-2 op count), instead of each
 * consumer re-running the interpreter.
 */
PairResult runPair(const Module &module, const RunConfig &config);

/** Full pair reusing an already-captured trace of (module,
 *  config.limits): a one-point PairSweep. */
PairResult runPair(const Module &module, const RunConfig &config,
                   const ExecTrace &trace);

/**
 * Batched conventional simulation: one lockstep walk replays @p trace
 * once and advances every config in @p machines per event
 * (sim/lockstep.hh), sharing one ConvLayout and one DecodedProgram
 * across all lanes.  Lanes partition by timing model: each
 * out-of-order lane and a lone abstract lane walk their own replay,
 * two or more abstract lanes share the lockstep walk.  Results are
 * bit-identical to running each config through runConventional()
 * independently.
 */
std::vector<SimResult> runConventionalBatch(
    const Module &module, const std::vector<MachineConfig> &machines,
    const ExecTrace &trace);

/** Batched BSA simulation over one already-laid-out module; same
 *  contract as runConventionalBatch. */
std::vector<SimResult> runBlockStructuredBatch(
    const BsaModule &bsa, const std::vector<MachineConfig> &machines,
    const ExecTrace &trace);

/**
 * Where a PairSweep gets one benchmark's trace.  acquire() is called
 * once per PairSweep::run(), when the benchmark's first batch starts,
 * from whichever worker starts it; the sweep drops its reference when
 * the benchmark's last batch ends.  A source shared by several
 * benchmarks must be safe to call from several workers at once.
 */
struct TraceSource
{
    /** Per-lane batch-order weight, known before acquisition: the
     *  trace's event count when the caller already holds it, else the
     *  op budget (Interp::Limits::maxOps) it is acquired under. */
    std::uint64_t weight = 0;
    std::function<std::shared_ptr<const ExecTrace>()> acquire;
};

/** A source for a trace the caller already holds, weighted by its
 *  event count; @p trace must outlive the sweep. */
TraceSource heldTrace(const ExecTrace &trace);

/**
 * The one driver of (benchmark x config) pair grids: the figure
 * drivers' grids, the sweep service's plan and runPair register
 * their points here and call run().  The planner groups the points
 * into batches, each of which is one runConventionalBatch or
 * runBlockStructuredBatch call over a single trace replay:
 *
 *   - conventional points form one batch per (benchmark, timing
 *     model): the conventional machine is independent of the
 *     enlargement parameters, so any config mix shares a walk;
 *   - block-structured points form one batch per (benchmark,
 *     enlargement, timing model): the lanes must share one BsaModule,
 *     enlarged and laid out once per batch.
 *
 * Each point's RunConfig::limits is ignored — the registered trace is
 * the committed stream.  run() fans the batches across BSISA_JOBS
 * workers (over benchmark x batch, not benchmark x config), claiming
 * one batch at a time, benchmark-major: benchmarks by their batches'
 * summed lanes x the source's weight, largest first, and within a
 * benchmark its batches by lanes, largest first, ties in plan order.
 * The longest work still starts first, and a benchmark's batches are
 * claimed back to back.  A benchmark's trace is acquired when its
 * first batch starts and released when its last batch ends, so the
 * traces resident at once are those of the batches in flight — one
 * at one job — not the whole grid's (DESIGN.md decision 25).
 * Distinct batches touch disjoint PairResult fields, so the results
 * are identical for any worker count and any claim order.
 */
class PairSweep
{
  public:
    /** Register one benchmark: its module, which must outlive the
     *  sweep, and its trace source.  Returns the benchmark handle for
     *  addPoint(). */
    std::size_t addBenchmark(const Module &module, TraceSource source);

    /** Add one grid point; returns its index into the results. */
    std::size_t addPoint(std::size_t bench, const RunConfig &config);

    /** Called with a point's index and result once both of its
     *  batches (conventional and block-structured) have finished, on
     *  the worker that finished the second; false stops the sweep. */
    using PointDone =
        std::function<bool(std::size_t point, const PairResult &result)>;

    /**
     * Plan and simulate every point (once, after registration);
     * returns the results by point index.  With @p done, each point
     * is reported as it completes; once a call returns false, no
     * further batch starts and no further point is reported, and the
     * results of unreported points are unspecified.
     */
    const std::vector<PairResult> &run(const PointDone &done = nullptr);

    /** Batches the plan formed; 0 before run(). */
    std::size_t batchCount() const { return batches.size(); }

  private:
    struct Bench
    {
        const Module *module;
        TraceSource source;
        /** Point indices in registration order. */
        std::vector<std::size_t> pointIds;
    };
    struct Batch
    {
        bool blockStructured;
        std::size_t bench;
        std::vector<std::size_t> pointIds;
    };

    /** Group the points into batches. */
    void plan();

    /** Execute one batch on its benchmark's @p trace (thread-safe
     *  across distinct indices). */
    void runBatch(std::size_t batch, const ExecTrace &trace);

    std::vector<Bench> benches;
    std::vector<std::size_t> pointBench;
    std::vector<RunConfig> pointConfig;
    std::vector<PairResult> points;
    std::vector<Batch> batches;
    bool planned = false;
};

/**
 * Extension: conventional machine augmented with a trace cache (the
 * paper's section-3 competitor / section-6 complement).  Returns the
 * cycle result plus the trace cache's hit statistics
 * (TraceCacheResult, sim/machine.hh).  Captures a trace under
 * @p limits, then runs the replay overload below.
 */
struct TraceCacheConfig;
TraceCacheResult runTraceCache(const Module &module,
                               const MachineConfig &machine,
                               const TraceCacheConfig &tcConfig,
                               Interp::Limits limits);

/** Trace-cache machine, replaying a captured trace. */
TraceCacheResult runTraceCache(const Module &module,
                               const MachineConfig &machine,
                               const TraceCacheConfig &tcConfig,
                               const ExecTrace &trace);

} // namespace bsisa

#endif // BSISA_EXP_RUNNER_HH
