/**
 * @file
 * Experiment runner implementation.
 */

#include "exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "codegen/layout.hh"
#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/lockstep.hh"
#include "sim/ooo/ooo.hh"
#include "sim/pipeline.hh"
#include "sim/tc_source.hh"
#include "sim/trace_store.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

namespace bsisa
{

namespace
{

/** Hand @p source to the backend config.machine selects: the paper's
 *  abstract window model or the out-of-order engine (sim/ooo). */
SimResult
simulateModel(FetchSource &source, const MachineConfig &machine)
{
    return machine.timingModel == TimingModel::Ooo
               ? simulateOoO(source, machine)
               : simulatePipeline(source, machine);
}

/**
 * The timing-model partition behind both batch entry points.  The
 * out-of-order backend reorders consumption and keeps private
 * rename/ROB/LSQ state, so each OoO lane walks its own replay through
 * @p single; a lone abstract lane takes the same singleton replay,
 * and two or more abstract lanes share one @p lockstep walk.  The
 * callers build the layout and DecodedProgram once for every lane.
 */
template <typename Single, typename Lockstep>
std::vector<SimResult>
partitionByModel(const std::vector<MachineConfig> &machines,
                 Single &&single, Lockstep &&lockstep)
{
    std::vector<SimResult> out(machines.size());
    std::vector<MachineConfig> abstractLanes;
    std::vector<std::size_t> abstractIdx;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        if (machines[i].timingModel == TimingModel::Ooo) {
            out[i] = single(machines[i]);
        } else {
            abstractIdx.push_back(i);
            abstractLanes.push_back(machines[i]);
        }
    }
    if (abstractLanes.size() == 1) {
        out[abstractIdx[0]] = single(abstractLanes[0]);
    } else if (!abstractLanes.empty()) {
        const std::vector<SimResult> sims = lockstep(abstractLanes);
        for (std::size_t i = 0; i < abstractIdx.size(); ++i)
            out[abstractIdx[i]] = sims[i];
    }
    return out;
}

} // namespace

SimResult
runConventional(const Module &module, const MachineConfig &machine,
                Interp::Limits limits)
{
    return runConventional(module, machine,
                           captureTrace(module, limits));
}

SimResult
runConventional(const Module &module, const MachineConfig &machine,
                const ExecTrace &trace)
{
    return runConventionalBatch(module, {machine}, trace)[0];
}

SimResult
runBlockStructured(const BsaModule &bsa, const MachineConfig &machine,
                   Interp::Limits limits)
{
    return runBlockStructured(bsa, machine,
                              captureTrace(*bsa.src, limits));
}

SimResult
runBlockStructured(const BsaModule &bsa, const MachineConfig &machine,
                   const ExecTrace &trace)
{
    return runBlockStructuredBatch(bsa, {machine}, trace)[0];
}

TraceCacheResult
runTraceCache(const Module &module, const MachineConfig &machine,
              const TraceCacheConfig &tcConfig, Interp::Limits limits)
{
    return runTraceCache(module, machine, tcConfig,
                         captureTrace(module, limits));
}

TraceCacheResult
runTraceCache(const Module &module, const MachineConfig &machine,
              const TraceCacheConfig &tcConfig, const ExecTrace &trace)
{
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    TraceCacheFetchSource source(module, layout, machine, tcConfig,
                                 trace, decoded);
    TraceCacheResult result;
    result.sim = simulateModel(source, machine);
    result.traceHits = source.traceHits();
    result.traceMisses = source.traceMisses();
    return result;
}

// The batch entry points hand multi-config grids to the lockstep
// drivers, which dedup effectively identical configs, group lanes by
// predictor identity, and run the decoupled fetch-outcome pre-pass so
// timing lanes from every group step as fused full-width batches
// (sim/lockstep.hh).  A single abstract lane goes through the
// singleton replay instead, which runs the same fetch walk without
// the batch layout: over the eight suite benchmarks at the default
// scale on the default machine, with traces, layouts and decoded
// programs built beforehand, the singleton took a median 0.336 s
// (conv) and 0.474 s (BSA) against 0.375 s and 0.498 s for a
// one-lane lockstepConventional / lockstepBlockStructured run, and
// was faster in 10 of 12 alternating repetitions on each machine
// (4-vCPU Xeon, one pinned core, bit-equal results).

std::vector<SimResult>
runConventionalBatch(const Module &module,
                     const std::vector<MachineConfig> &machines,
                     const ExecTrace &trace)
{
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    return partitionByModel(
        machines,
        [&](const MachineConfig &machine) {
            ConvFetchSource source(module, layout, machine, trace,
                                   decoded);
            return simulateModel(source, machine);
        },
        [&](const std::vector<MachineConfig> &lanes) {
            return lockstepConventional(module, layout, decoded, lanes,
                                        trace);
        });
}

std::vector<SimResult>
runBlockStructuredBatch(const BsaModule &bsa,
                        const std::vector<MachineConfig> &machines,
                        const ExecTrace &trace)
{
    const DecodedProgram decoded = DecodedProgram::forBsa(bsa);
    return partitionByModel(
        machines,
        [&](const MachineConfig &machine) {
            BsaFetchSource source(bsa, machine, trace, decoded);
            return simulateModel(source, machine);
        },
        [&](const std::vector<MachineConfig> &lanes) {
            return lockstepBlockStructured(bsa, decoded, lanes, trace);
        });
}

TraceSource
heldTrace(const ExecTrace &trace)
{
    return {trace.eventCount, [&trace] {
                return std::shared_ptr<const ExecTrace>(
                    &trace, [](const ExecTrace *) {});
            }};
}

std::size_t
PairSweep::addBenchmark(const Module &module, TraceSource source)
{
    BSISA_ASSERT(!planned && source.acquire);
    benches.push_back(Bench{&module, std::move(source), {}});
    return benches.size() - 1;
}

std::size_t
PairSweep::addPoint(std::size_t bench, const RunConfig &config)
{
    BSISA_ASSERT(!planned && bench < benches.size());
    const std::size_t idx = points.size();
    pointBench.push_back(bench);
    pointConfig.push_back(config);
    points.emplace_back();
    benches[bench].pointIds.push_back(idx);
    return idx;
}

void
PairSweep::plan()
{
    BSISA_ASSERT(!planned);
    planned = true;
    // Timing model is a grouping axis of both machines: out-of-order
    // lanes each walk a private replay, so an abstract batch never
    // serializes its lockstep lanes behind them.  The conventional
    // machine is independent of the enlargement parameters, so any
    // such config mix shares one walk; block-structured lanes must
    // also share one BsaModule (equal enlargement parameters).
    for (std::size_t b = 0; b < benches.size(); ++b) {
        for (const bool blockStructured : {false, true}) {
            const std::size_t first = batches.size();
            for (std::size_t idx : benches[b].pointIds) {
                const RunConfig &config = pointConfig[idx];
                const auto fits = [&](const Batch &bt) {
                    const RunConfig &head =
                        pointConfig[bt.pointIds.front()];
                    return head.machine.timingModel ==
                               config.machine.timingModel &&
                           (!blockStructured ||
                            (head.enlarge == config.enlarge &&
                             head.minMergeBias == config.minMergeBias));
                };
                const auto it = std::find_if(
                    batches.begin() + std::ptrdiff_t(first),
                    batches.end(), fits);
                if (it != batches.end())
                    it->pointIds.push_back(idx);
                else
                    batches.push_back(Batch{blockStructured, b, {idx}});
            }
        }
    }
}

const std::vector<PairResult> &
PairSweep::run(const PointDone &done)
{
    plan();
    // Benchmark-major, longest first: benchmarks by summed lanes x
    // weight, then each one's batches by lanes (stable on ties),
    // claimed one at a time.  The largest walks start at once instead
    // of trailing the rest, and a benchmark's batches run back to
    // back, so its trace is resident only while they do.  Each batch
    // writes only its own points' slots, so the order cannot move a
    // result.
    std::vector<std::uint64_t> benchCost(benches.size(), 0);
    for (const Batch &bt : batches)
        benchCost[bt.bench] +=
            bt.pointIds.size() * benches[bt.bench].source.weight;
    std::vector<std::size_t> order(batches.size());
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) {
                         const std::size_t bx = batches[x].bench;
                         const std::size_t by = batches[y].bench;
                         if (bx != by)
                             return benchCost[bx] != benchCost[by]
                                        ? benchCost[bx] > benchCost[by]
                                        : bx < by;
                         return batches[x].pointIds.size() >
                                batches[y].pointIds.size();
                     });

    // A benchmark's trace is held from its first batch's start to its
    // last batch's end: the first worker to start one acquires it
    // (workers on the same benchmark wait for that), and the worker
    // that finishes the last drops the sweep's reference.
    struct Residency
    {
        std::mutex mutex;
        std::shared_ptr<const ExecTrace> trace;
        std::size_t batchesLeft = 0;
    };
    std::vector<Residency> resident(benches.size());
    for (const Batch &bt : batches)
        ++resident[bt.bench].batchesLeft;
    // Every point sits in one conventional and one block-structured
    // batch; the second to finish reports it.
    std::vector<std::atomic<unsigned char>> halvesLeft(points.size());
    for (std::atomic<unsigned char> &left : halvesLeft)
        left = 2;
    std::atomic<bool> stopped{false};
    parallelForChunked(order.size(), 1, [&](std::size_t i) {
        if (stopped)
            return;
        const std::size_t b = batches[order[i]].bench;
        Residency &r = resident[b];
        std::shared_ptr<const ExecTrace> trace;
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            if (!r.trace)
                r.trace = benches[b].source.acquire();
            trace = r.trace;
        }
        runBatch(order[i], *trace);
        {
            std::lock_guard<std::mutex> lock(r.mutex);
            if (--r.batchesLeft == 0)
                r.trace.reset();
        }
        if (!done)
            return;
        for (std::size_t idx : batches[order[i]].pointIds)
            if (--halvesLeft[idx] == 0 && !stopped &&
                !done(idx, points[idx]))
                stopped = true;
    });
    return points;
}

void
PairSweep::runBatch(std::size_t batch, const ExecTrace &trace)
{
    BSISA_ASSERT(planned && batch < batches.size());
    const Batch &bt = batches[batch];
    const Bench &bench = benches[bt.bench];

    if (!bt.blockStructured) {
        const ConvLayout layout(*bench.module);
        std::vector<MachineConfig> machines;
        machines.reserve(bt.pointIds.size());
        for (std::size_t idx : bt.pointIds) {
            points[idx].convCodeBytes = layout.totalBytes();
            points[idx].dynOps = trace.dynOps;
            machines.push_back(pointConfig[idx].machine);
        }
        const std::vector<SimResult> sims =
            runConventionalBatch(*bench.module, machines, trace);
        for (std::size_t i = 0; i < bt.pointIds.size(); ++i)
            points[bt.pointIds[i]].conv = sims[i];
        return;
    }

    // One enlargement serves every lane of a block-structured batch.
    const RunConfig &head = pointConfig[bt.pointIds.front()];
    EnlargeConfig enlarge_cfg = head.enlarge;
    ProfileData profile;
    const ProfileData *profile_ptr = nullptr;
    if (head.minMergeBias > 0.0) {
        profile = profileFromTrace(trace);
        profile_ptr = &profile;
        enlarge_cfg.minMergeBias = head.minMergeBias;
    }
    EnlargeStats stats;
    BsaModule bsa = enlargeModule(*bench.module, enlarge_cfg,
                                  profile_ptr, &stats);
    const std::uint64_t code_bytes = layoutBsaModule(bsa);

    std::vector<MachineConfig> machines;
    machines.reserve(bt.pointIds.size());
    for (std::size_t idx : bt.pointIds) {
        points[idx].enlarge = stats;
        points[idx].bsaCodeBytes = code_bytes;
        machines.push_back(pointConfig[idx].machine);
    }
    const std::vector<SimResult> sims =
        runBlockStructuredBatch(bsa, machines, trace);
    for (std::size_t i = 0; i < bt.pointIds.size(); ++i)
        points[bt.pointIds[i]].bsa = sims[i];
}

PairResult
runPair(const Module &module, const RunConfig &config)
{
    // Capture-or-open: served from the BSISA_TRACE_DIR store when one
    // is configured, captured live (identical behavior) otherwise.
    const ExecTrace trace = captureOrLoadTrace(module, config.limits);
    return runPair(module, config, trace);
}

PairResult
runPair(const Module &module, const RunConfig &config,
        const ExecTrace &trace)
{
    PairSweep sweep;
    sweep.addPoint(sweep.addBenchmark(module, heldTrace(trace)), config);
    return sweep.run()[0];
}

} // namespace bsisa
