/**
 * @file
 * google-benchmark microbenchmarks of the toolchain itself: BlockC
 * compilation, block enlargement, functional interpretation, and
 * cycle-level simulation throughput.  These are engineering
 * benchmarks, not paper artifacts; they keep the simulator's speed
 * honest as the code evolves.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "bench_common.hh"
#include "core/enlarge.hh"
#include "codegen/layout.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "sim/trace_store.hh"
#include "support/env.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/varint.hh"
#include "workloads/specmix.hh"

namespace
{

using namespace bsisa;

const char *kSource = R"(
    var d[64];
    fn work(x, i) {
        var t = x;
        for (var k = 0; k < 4; k = k + 1) {
            if (d[(i + k) & 63] & 1) { t = t * 3 + 1; }
            else { t = t + k; }
        }
        return t;
    }
    fn main() {
        var acc = 0;
        for (var i = 0; i < 200; i = i + 1) { acc = acc + work(acc, i); }
        return acc;
    }
)";

void
BM_CompileBlockC(benchmark::State &state)
{
    for (auto _ : state) {
        Module m = compileBlockCOrDie(kSource);
        benchmark::DoNotOptimize(m.numOps());
    }
}
BENCHMARK(BM_CompileBlockC);

void
BM_GenerateWorkload(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const WorkloadParams &params = suite[0].params;  // compress
    for (auto _ : state) {
        Module m = generateWorkload(params);
        benchmark::DoNotOptimize(m.numOps());
    }
}
BENCHMARK(BM_GenerateWorkload);

void
BM_BlockEnlargement(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    for (auto _ : state) {
        BsaModule bsa = enlargeModule(m, EnlargeConfig{});
        benchmark::DoNotOptimize(bsa.numOps());
    }
}
BENCHMARK(BM_BlockEnlargement);

void
BM_FunctionalInterp(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t budget = 200000;
    for (auto _ : state) {
        Interp::Limits limits;
        limits.maxOps = budget;
        Interp interp(m, limits);
        interp.run();
        benchmark::DoNotOptimize(interp.dynOps());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(budget));
}
BENCHMARK(BM_FunctionalInterp);

void
BM_ConvTimingSim(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t budget = 200000;
    for (auto _ : state) {
        MachineConfig machine;
        Interp::Limits limits;
        limits.maxOps = budget;
        const SimResult r = runConventional(m, machine, limits);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(budget));
}
BENCHMARK(BM_ConvTimingSim);

void
BM_BsaTimingSim(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    const std::uint64_t budget = 200000;
    for (auto _ : state) {
        MachineConfig machine;
        Interp::Limits limits;
        limits.maxOps = budget;
        const SimResult r = runBlockStructured(bsa, machine, limits);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(budget));
}
BENCHMARK(BM_BsaTimingSim);

/**
 * The sweep-shaped workload the figure drivers actually run: a full
 * conv/BSA pair across a 3-point icache sweep (6 timing runs).  The
 * seed path runs the functional interpreter afresh for every timing
 * run (the Interp::Limits entry points capture a trace, then replay
 * it) and executes the points serially; the replay path captures one
 * trace and fans the points across BSISA_JOBS cores.  Items/s is
 * simulated operations per second (Mops/s at the usual scales), so
 * the two benchmarks are directly comparable.  BSISA_BENCH_OPS
 * shrinks the per-point budget for CI smoke runs.
 */
const std::vector<unsigned> kSweepKB = {16, 32, 64};

std::uint64_t
sweepBudget()
{
    return envU64("BSISA_BENCH_OPS", 200000);
}

void
BM_PairSweep_SeedPath(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
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
                            std::int64_t(budget) * 2 *
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
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
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
                            std::int64_t(budget) * 2 *
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
 * so lockstep/independent is directly the sweep speedup recorded in
 * BENCH_PR6.json.
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
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
    const ExecTrace trace = captureTrace(m, limits);
    const std::vector<MachineConfig> grid = benchGrid16();
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (const MachineConfig &machine : grid)
            total += runConventional(m, machine, trace).cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(budget) *
                            std::int64_t(grid.size()));
}
BENCHMARK(BM_Grid16Conv_IndependentReplay)
    ->Unit(benchmark::kMillisecond);

void
BM_Grid16Conv_Lockstep(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
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
                            std::int64_t(budget) *
                            std::int64_t(grid.size()));
}
BENCHMARK(BM_Grid16Conv_Lockstep)->Unit(benchmark::kMillisecond);

void
BM_Grid16Bsa_IndependentReplay(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
    const ExecTrace trace = captureTrace(m, limits);
    const std::vector<MachineConfig> grid = benchGrid16();
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (const MachineConfig &machine : grid)
            total += runBlockStructured(bsa, machine, trace).cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(budget) *
                            std::int64_t(grid.size()));
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
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
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
                            std::int64_t(budget) *
                            std::int64_t(grid.size()));
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
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
    const TraceStore store(benchStoreDir());
    const std::uint64_t digest = moduleDigest(m);
    const TraceKey key{digest, limits.maxOps, limits.maxBlocks};
    for (auto _ : state) {
        std::remove(store.entryPath(key).c_str());  // force a miss
        const ExecTrace trace = store.load(m, digest, limits);
        benchmark::DoNotOptimize(trace.eventCount);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(budget));
}
BENCHMARK(BM_TraceStore_ColdCapture)->Unit(benchmark::kMillisecond);

void
BM_TraceStore_WarmLoad(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
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
                            std::int64_t(budget));
}
BENCHMARK(BM_TraceStore_WarmLoad)->Unit(benchmark::kMillisecond);

void
BM_PairSweep_WarmStoreReplayParallel(benchmark::State &state)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    const std::uint64_t budget = sweepBudget();
    Interp::Limits limits;
    limits.maxOps = budget;
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
                            std::int64_t(budget) * 2 *
                            std::int64_t(kSweepKB.size()));
}
BENCHMARK(BM_PairSweep_WarmStoreReplayParallel)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

/**
 * The varint/delta codec on its own, over a value distribution shaped
 * like the event stream (mostly tiny deltas, occasional large jumps),
 * so future format tweaks have an ops/sec baseline to beat.
 */
std::vector<std::uint64_t>
codecValues()
{
    std::vector<std::uint64_t> values;
    values.reserve(1 << 16);
    Rng rng(12345);
    for (std::size_t i = 0; i < values.capacity(); ++i) {
        const unsigned shape = rng.nextBelow(16);
        if (shape < 12)  // predicted-successor deltas: ~0
            values.push_back(zigzagEncode(std::int64_t(shape) - 6));
        else if (shape < 15)  // address counts / short jumps
            values.push_back(rng.nextBelow(1024));
        else  // cross-function jumps
            values.push_back(rng.next() >> 16);
    }
    return values;
}

void
BM_VarintEncode(benchmark::State &state)
{
    const std::vector<std::uint64_t> values = codecValues();
    std::vector<std::uint8_t> out;
    for (auto _ : state) {
        out.clear();
        for (std::uint64_t v : values)
            putVarint(out, v);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(values.size()));
}
BENCHMARK(BM_VarintEncode);

void
BM_VarintDecode(benchmark::State &state)
{
    const std::vector<std::uint64_t> values = codecValues();
    std::vector<std::uint8_t> buf;
    for (std::uint64_t v : values)
        putVarint(buf, v);
    for (auto _ : state) {
        const std::uint8_t *p = buf.data();
        const std::uint8_t *end = buf.data() + buf.size();
        std::uint64_t sum = 0, v = 0;
        while (p < end && getVarint(p, end, v))
            sum += v;
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(values.size()));
}
BENCHMARK(BM_VarintDecode);

/**
 * Console reporter that also records every run for the
 * machine-readable summary.  The human-facing output is exactly
 * google-benchmark's default; the JSON rides along for CI gating.
 */
class TeeReporter : public benchmark::ConsoleReporter
{
  public:
    struct Entry
    {
        std::string name;
        double realTimeSec = 0.0;
        double cpuTimeSec = 0.0;
        double itemsPerSecond = 0.0;
        std::int64_t iterations = 0;
    };

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        benchmark::ConsoleReporter::ReportRuns(reports);
        for (const Run &run : reports) {
            Entry e;
            e.name = run.benchmark_name();
            e.realTimeSec = run.GetAdjustedRealTime() *
                            timeMultiplier(run.time_unit);
            e.cpuTimeSec = run.GetAdjustedCPUTime() *
                           timeMultiplier(run.time_unit);
            const auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                e.itemsPerSecond = it->second;
            e.iterations = run.iterations;
            entries.push_back(std::move(e));
        }
    }

    std::vector<Entry> entries;

  private:
    static double
    timeMultiplier(benchmark::TimeUnit unit)
    {
        switch (unit) {
          case benchmark::kNanosecond: return 1e-9;
          case benchmark::kMicrosecond: return 1e-6;
          case benchmark::kMillisecond: return 1e-3;
          case benchmark::kSecond: return 1.0;
        }
        return 1.0;
    }
};

/** Write the recorded runs (the BENCH_PR3.json record) to the path in
 *  BSISA_BENCH_JSON; unset or empty writes nothing. */
void
writeJson(const std::vector<TeeReporter::Entry> &entries)
{
    const char *env = std::getenv("BSISA_BENCH_JSON");
    const std::string path = env ? env : "";
    if (path.empty())
        return;

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return;
    }

    double seed_ips = 0.0, replay_ips = 0.0, warm_replay_ips = 0.0;
    double cold_sec = 0.0, warm_sec = 0.0;
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const TeeReporter::Entry &e = entries[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"real_time_sec\": %.9g, "
                     "\"cpu_time_sec\": %.9g, "
                     "\"items_per_second\": %.9g, "
                     "\"iterations\": %lld}%s\n",
                     e.name.c_str(), e.realTimeSec, e.cpuTimeSec,
                     e.itemsPerSecond,
                     static_cast<long long>(e.iterations),
                     i + 1 < entries.size() ? "," : "");
        if (e.name.find("PairSweep_SeedPath") != std::string::npos)
            seed_ips = e.itemsPerSecond;
        if (e.name.find("PairSweep_CaptureReplayParallel") !=
            std::string::npos)
            replay_ips = e.itemsPerSecond;
        if (e.name.find("PairSweep_WarmStoreReplayParallel") !=
            std::string::npos)
            warm_replay_ips = e.itemsPerSecond;
        if (e.name.find("TraceStore_ColdCapture") != std::string::npos)
            cold_sec = e.realTimeSec;
        if (e.name.find("TraceStore_WarmLoad") != std::string::npos)
            warm_sec = e.realTimeSec;
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"pair_sweep_seed_ops_per_sec\": %.9g,\n",
                 seed_ips);
    std::fprintf(f, "  \"pair_sweep_replay_ops_per_sec\": %.9g,\n",
                 replay_ips);
    std::fprintf(f, "  \"pair_sweep_speedup\": %.6g,\n",
                 seed_ips > 0.0 ? replay_ips / seed_ips : 0.0);
    std::fprintf(f,
                 "  \"pair_sweep_warm_store_ops_per_sec\": %.9g,\n",
                 warm_replay_ips);
    std::fprintf(f, "  \"trace_store_cold_capture_sec\": %.9g,\n",
                 cold_sec);
    std::fprintf(f, "  \"trace_store_warm_load_sec\": %.9g,\n",
                 warm_sec);
    std::fprintf(f, "  \"trace_store_warm_cold_ratio\": %.6g\n",
                 cold_sec > 0.0 ? warm_sec / cold_sec : 0.0);
    std::fprintf(f, "}\n");
    std::fclose(f);
}

/** Write the lockstep-vs-independent-replay grid numbers (the
 *  BENCH_PR6.json record) to the path in BSISA_BENCH_JSON_PR6; unset
 *  or empty writes nothing.  The speedup keys are real-time ratios of
 *  the same sixteen-config sweep run both ways on this machine. */
void
writePr6Json(const std::vector<TeeReporter::Entry> &entries)
{
    const char *env = std::getenv("BSISA_BENCH_JSON_PR6");
    const std::string path = env ? env : "";
    if (path.empty())
        return;

    double conv_indep = 0.0, conv_lock = 0.0;
    double bsa_indep = 0.0, bsa_lock = 0.0;
    bool any = false;
    for (const TeeReporter::Entry &e : entries) {
        if (e.name.find("Grid16") == std::string::npos)
            continue;
        any = true;
        if (e.name.find("Grid16Conv_IndependentReplay") !=
            std::string::npos)
            conv_indep = e.itemsPerSecond;
        else if (e.name.find("Grid16Conv_Lockstep") !=
                 std::string::npos)
            conv_lock = e.itemsPerSecond;
        else if (e.name.find("Grid16Bsa_IndependentReplay") !=
                 std::string::npos)
            bsa_indep = e.itemsPerSecond;
        else if (e.name.find("Grid16Bsa_Lockstep") !=
                 std::string::npos)
            bsa_lock = e.itemsPerSecond;
    }
    if (!any)
        return;  // grid benchmarks filtered out of this run

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    bool first = true;
    for (const TeeReporter::Entry &e : entries) {
        if (e.name.find("Grid16") == std::string::npos)
            continue;
        std::fprintf(f,
                     "%s    {\"name\": \"%s\", "
                     "\"real_time_sec\": %.9g, "
                     "\"cpu_time_sec\": %.9g, "
                     "\"items_per_second\": %.9g, "
                     "\"iterations\": %lld}",
                     first ? "" : ",\n", e.name.c_str(),
                     e.realTimeSec, e.cpuTimeSec, e.itemsPerSecond,
                     static_cast<long long>(e.iterations));
        first = false;
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"grid_configs\": 16,\n");
    std::fprintf(f,
                 "  \"conv_independent_ops_per_sec\": %.9g,\n"
                 "  \"conv_lockstep_ops_per_sec\": %.9g,\n"
                 "  \"bsa_independent_ops_per_sec\": %.9g,\n"
                 "  \"bsa_lockstep_ops_per_sec\": %.9g,\n",
                 conv_indep, conv_lock, bsa_indep, bsa_lock);
    std::fprintf(f, "  \"conv_lockstep_speedup\": %.6g,\n",
                 conv_indep > 0.0 ? conv_lock / conv_indep : 0.0);
    std::fprintf(f, "  \"bsa_lockstep_speedup\": %.6g\n",
                 bsa_indep > 0.0 ? bsa_lock / bsa_indep : 0.0);
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    TeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    writeJson(reporter.entries);
    writePr6Json(reporter.entries);
    bsisabench::reportTraceStore();
    std::error_code ec;
    std::filesystem::remove_all(benchStoreDir(), ec);
    return 0;
}
