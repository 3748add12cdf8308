/**
 * @file
 * google-benchmark measurements of the simulator's engineering
 * speedups: trace replay, the trace store, the lockstep sweep engine
 * and the timing-model dispatch seam.  These are not paper artifacts;
 * bench/gates.py runs this binary with --benchmark_out and checks
 * the ratios in its gate table, so the simulator's speed stays
 * honest as the code evolves.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/enlarge.hh"
#include "codegen/layout.hh"
#include "exp/runner.hh"
#include "sim/conv_source.hh"
#include "sim/pipeline.hh"
#include "sim/trace_store.hh"
#include "support/parallel.hh"
#include "workloads/specmix.hh"

namespace
{

using namespace bsisa;

/**
 * The sweep-shaped workload the figure drivers actually run: a full
 * conv/BSA pair across a 3-point icache sweep (6 timing runs).  The
 * seed path runs the functional interpreter afresh for every timing
 * run (the Interp::Limits entry points capture a trace, then replay
 * it) and executes the points serially; the replay path captures one
 * trace and fans the points across BSISA_JOBS cores.  Items/s is
 * simulated operations per second (Mops/s at the usual scales), so
 * the two benchmarks are directly comparable.  Every sweep, grid and
 * store case runs compress at kSweepOps operations per point.
 */
const std::vector<unsigned> kSweepKB = {16, 32, 64};
constexpr std::uint64_t kSweepOps = 50000;

void
BM_PairSweep_SeedPath(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (unsigned kb : kSweepKB) {
            MachineConfig machine;
            machine.icache.sizeBytes = kb * 1024;
            total += runConventional(m, machine, limits).cycles;
            total += runBlockStructured(bsa, machine, limits).cycles;
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) * 2 *
                            std::int64_t(kSweepKB.size()));
}
BENCHMARK(BM_PairSweep_SeedPath)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void
BM_PairSweep_CaptureReplayParallel(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    for (auto _ : state) {
        // Capture once per sweep (timed: it is part of the real cost),
        // then replay every config point from the shared trace.
        const ExecTrace trace = captureTrace(m, limits);
        std::vector<std::uint64_t> cycles(kSweepKB.size() * 2);
        parallelFor(cycles.size(), [&](std::size_t idx) {
            MachineConfig machine;
            machine.icache.sizeBytes = kSweepKB[idx / 2] * 1024;
            cycles[idx] =
                (idx & 1)
                    ? runBlockStructured(bsa, machine, trace).cycles
                    : runConventional(m, machine, trace).cycles;
        });
        std::uint64_t total = 0;
        for (std::uint64_t c : cycles)
            total += c;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) * 2 *
                            std::int64_t(kSweepKB.size()));
}
BENCHMARK(BM_PairSweep_CaptureReplayParallel)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * The lockstep sweep engine against the per-config replay it
 * replaces: a sixteen-config grid (issue width x predictor geometry x
 * prediction mode x icache size, the shape of the ablation drivers)
 * over one captured trace.  The independent path replays the trace
 * once per config, exactly as the figure drivers did before batching;
 * the lockstep path walks the trace once and advances all sixteen
 * machine lanes per event, sharing the config-independent translation
 * plus one predictor per identical-predictor group and one dcache
 * hit/miss stream per dcache geometry, while every lane runs its own
 * icache (effectively identical configs collapse to a single lane).
 * Items/s is simulated operations per second summed over the grid,
 * so lockstep/independent is directly the sweep speedup; the lanes
 * counter is the grid's measured size.
 */
std::vector<MachineConfig>
benchGrid16()
{
    std::vector<MachineConfig> grid;
    for (const unsigned width : {8u, 16u}) {
        for (const unsigned hist : {8u, 12u}) {
            for (const bool perfect : {false, true}) {
                for (const unsigned kb : {16u, 64u}) {
                    MachineConfig m;
                    m.issueWidth = width;
                    m.predictor.historyBits = hist;
                    m.perfectPrediction = perfect;
                    m.icache.sizeBytes = kb * 1024;
                    grid.push_back(m);
                }
            }
        }
    }
    return grid;
}

void
BM_Grid16Conv_IndependentReplay(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const ExecTrace trace = captureTrace(m, limits);
    const std::vector<MachineConfig> grid = benchGrid16();
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (const MachineConfig &machine : grid)
            total += runConventional(m, machine, trace).cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) *
                            std::int64_t(grid.size()));
    state.counters["lanes"] = double(grid.size());
}
BENCHMARK(BM_Grid16Conv_IndependentReplay)
    ->Unit(benchmark::kMillisecond);

void
BM_Grid16Conv_Lockstep(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const ExecTrace trace = captureTrace(m, limits);
    const std::vector<MachineConfig> grid = benchGrid16();
    for (auto _ : state) {
        const std::vector<SimResult> results =
            runConventionalBatch(m, grid, trace);
        std::uint64_t total = 0;
        for (const SimResult &r : results)
            total += r.cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) *
                            std::int64_t(grid.size()));
    state.counters["lanes"] = double(grid.size());
}
BENCHMARK(BM_Grid16Conv_Lockstep)->Unit(benchmark::kMillisecond);

void
BM_Grid16Bsa_IndependentReplay(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const ExecTrace trace = captureTrace(m, limits);
    const std::vector<MachineConfig> grid = benchGrid16();
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (const MachineConfig &machine : grid)
            total += runBlockStructured(bsa, machine, trace).cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) *
                            std::int64_t(grid.size()));
    state.counters["lanes"] = double(grid.size());
}
BENCHMARK(BM_Grid16Bsa_IndependentReplay)
    ->Unit(benchmark::kMillisecond);

void
BM_Grid16Bsa_Lockstep(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const ExecTrace trace = captureTrace(m, limits);
    const std::vector<MachineConfig> grid = benchGrid16();
    for (auto _ : state) {
        const std::vector<SimResult> results =
            runBlockStructuredBatch(bsa, grid, trace);
        std::uint64_t total = 0;
        for (const SimResult &r : results)
            total += r.cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) *
                            std::int64_t(grid.size()));
    state.counters["lanes"] = double(grid.size());
}
BENCHMARK(BM_Grid16Bsa_Lockstep)->Unit(benchmark::kMillisecond);

/**
 * Trace-store cold vs warm cost, and the sweep driven from a warm
 * store.  "Cold" is what the first process in a suite pays per
 * benchmark (functional execution + encode + atomic write); "warm" is
 * what every later process pays instead (mmap + checksum + event
 * decode, zero functional execution).  Items/s is simulated ops per
 * second in both, so warm/cold is directly the per-process saving.
 * The benchmarks use a private temp directory, not BSISA_TRACE_DIR,
 * so they measure the same thing no matter how the process was run.
 */
std::string
benchStoreDir()
{
    static const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("bsisa-bench-store-" + std::to_string(::getpid())))
            .string();
    return dir;
}

void
BM_TraceStore_ColdCapture(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const TraceStore store(benchStoreDir());
    const std::uint64_t digest = moduleDigest(m);
    const TraceKey key{digest, limits.maxOps, limits.maxBlocks};
    for (auto _ : state) {
        std::remove(store.entryPath(key).c_str());  // force a miss
        const ExecTrace trace = store.load(m, digest, limits);
        benchmark::DoNotOptimize(trace.eventCount);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps));
}
BENCHMARK(BM_TraceStore_ColdCapture)->Unit(benchmark::kMillisecond);

void
BM_TraceStore_WarmLoad(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const TraceStore store(benchStoreDir());
    const std::uint64_t digest = moduleDigest(m);
    (void)store.load(m, digest, limits);  // warm the entry
    for (auto _ : state) {
        const ExecTrace trace = store.load(m, digest, limits);
        benchmark::DoNotOptimize(trace.eventCount);
        if (!trace.mapped())
            state.SkipWithError("warm load fell back to capture");
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps));
}
BENCHMARK(BM_TraceStore_WarmLoad)->Unit(benchmark::kMillisecond);

void
BM_PairSweep_WarmStoreReplayParallel(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    Interp::Limits limits;
    limits.maxOps = kSweepOps;
    const TraceStore store(benchStoreDir());
    const std::uint64_t digest = moduleDigest(m);
    (void)store.load(m, digest, limits);  // warm the entry
    for (auto _ : state) {
        // What a warm suite process pays: open from disk (timed),
        // then replay every config point from the mmap-ed trace.
        const ExecTrace trace = store.load(m, digest, limits);
        std::vector<std::uint64_t> cycles(kSweepKB.size() * 2);
        parallelFor(cycles.size(), [&](std::size_t idx) {
            MachineConfig machine;
            machine.icache.sizeBytes = kSweepKB[idx / 2] * 1024;
            cycles[idx] =
                (idx & 1)
                    ? runBlockStructured(bsa, machine, trace).cycles
                    : runConventional(m, machine, trace).cycles;
        });
        std::uint64_t total = 0;
        for (std::uint64_t c : cycles)
            total += c;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(kSweepOps) * 2 *
                            std::int64_t(kSweepKB.size()));
}
BENCHMARK(BM_PairSweep_WarmStoreReplayParallel)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * The timing-model dispatch seam and the out-of-order backend, on the
 * conventional machine over compress (small, loopy) and gcc (large
 * code footprint) at 1/2000 of their Table 2 budgets: the two icache
 * extremes of the suite.  Each iteration walks both traces, so
 * items/s is their total ops over total time.
 *
 *   AbstractDirect   — simulatePipeline() on a ConvFetchSource, the
 *                      pre-dispatch entry point;
 *   AbstractDispatch — runConventional() with the default config,
 *                      routed through simulateModel(); its ratio to
 *                      AbstractDirect is the seam's overhead;
 *   OooDispatch      — runConventional() with timing_model=ooo; its
 *                      ratio to AbstractDispatch is the fidelity cost
 *                      of the high-fidelity backend.
 *
 * Both abstract variants build the layout and the decoded program
 * inside the timed region, as runConventional does, so they time
 * equal work.  Every variant is checked against each trace's
 * committed-op count before it is timed, so a wrong simulation cannot
 * post a throughput number.
 */
struct SeamCase
{
    Module module;
    ExecTrace trace;
};

const std::vector<SeamCase> &
seamCases()
{
    static const std::vector<SeamCase> cases = [] {
        const auto suite = specint95Suite();
        std::vector<SeamCase> out;
        for (const std::size_t pick : {0, 1}) {  // compress, gcc
            Module module = generateWorkload(suite[pick].params);
            Interp::Limits limits;
            limits.maxOps = suite[pick].scaledBudget(2000);
            ExecTrace trace = captureTrace(module, limits);
            out.push_back({std::move(module), std::move(trace)});
        }
        return out;
    }();
    return cases;
}

/** Time @p walk, which simulates a case's whole trace and returns
 *  its retired-op count, over every seam case. */
template <typename Walk>
void
timeSeamWalk(benchmark::State &state, Walk walk)
{
    std::uint64_t ops = 0;
    for (const SeamCase &c : seamCases()) {
        if (walk(c) != c.trace.dynOps)
            state.SkipWithError("retired-op count diverged from the "
                                "trace");
        ops += c.trace.dynOps;
    }
    for (auto _ : state)
        for (const SeamCase &c : seamCases())
            benchmark::DoNotOptimize(walk(c));
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(ops));
}

void
BM_Seam_AbstractDirect(benchmark::State &state)
{
    const MachineConfig machine;
    timeSeamWalk(state, [&](const SeamCase &c) {
        const ConvLayout layout(c.module);
        const DecodedProgram decoded = DecodedProgram::forModule(c.module);
        ConvFetchSource source(c.module, layout, machine, c.trace,
                               decoded);
        return simulatePipeline(source, machine).retiredOps;
    });
}
BENCHMARK(BM_Seam_AbstractDirect)->Unit(benchmark::kMillisecond);

void
BM_Seam_AbstractDispatch(benchmark::State &state)
{
    const MachineConfig machine;
    timeSeamWalk(state, [&](const SeamCase &c) {
        return runConventional(c.module, machine, c.trace).retiredOps;
    });
}
BENCHMARK(BM_Seam_AbstractDispatch)->Unit(benchmark::kMillisecond);

void
BM_Seam_OooDispatch(benchmark::State &state)
{
    MachineConfig machine;
    machine.timingModel = TimingModel::Ooo;
    timeSeamWalk(state, [&](const SeamCase &c) {
        return runConventional(c.module, machine, c.trace).retiredOps;
    });
}
BENCHMARK(BM_Seam_OooDispatch)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::error_code ec;
    std::filesystem::remove_all(benchStoreDir(), ec);
    return 0;
}
