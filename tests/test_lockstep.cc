/**
 * @file
 * Tests for the lockstep multi-config sweep engine (sim/lockstep.hh)
 * and its runner-level batch APIs (exp/runner.hh).
 *
 * The contract under test is bit-equality: a batched walk that
 * advances N machine configs per trace event must produce exactly the
 * SimResult of running each config through the sequential per-config
 * replay, for both batched machines (conventional and
 * block-structured), every batch size (including odd splits and the
 * singleton fallback), and any BSISA_JOBS fan-out of a sweep's
 * batches.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/result_store.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "fuzz/corpus.hh"
#include "sim/bsa_source.hh"
#include "sim/fetch_outcome.hh"
#include "sim/trace.hh"
#include "sim_result_print.hh"
#include "support/digest.hh"
#include "support/lockfile.hh"
#include "support/simd_dispatch.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

Interp::Limits
testLimits(const SpecBenchmark &bench)
{
    Interp::Limits limits;
    limits.maxOps = bench.scaledBudget(4000);
    return limits;
}

/** Sixteen configs disagreeing on issue width, predictor geometry,
 *  prediction mode, and icache size, so lockstep lanes diverge hard
 *  (different redirects, window pressure, and fill behavior). */
std::vector<MachineConfig>
grid16()
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

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *old = ::getenv(name);
        if (old) {
            hadOld = true;
            oldValue = old;
        }
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldValue.c_str(), 1);
        else
            ::unsetenv(name);
    }

  private:
    const char *name;
    bool hadOld = false;
    std::string oldValue;
};

} // namespace

TEST(Lockstep, BatchMatchesSequentialAcrossSuite)
{
    const std::vector<MachineConfig> grid = grid16();
    const auto suite = specint95Suite();
    // Every benchmark at its test budget, plus one trace shorter than
    // the 64-event BSA lookahead, so every fetch of it sees a window
    // truncated at the trace tail, and one trace longer than three
    // fetch-outcome capture windows with a ragged last window, so the
    // batch drivers carry predictor state, group cursors and stream
    // cursors across window boundaries.
    std::vector<std::pair<const SpecBenchmark *, Interp::Limits>> inputs;
    for (const SpecBenchmark &bench : suite)
        inputs.emplace_back(&bench, testLimits(bench));
    Interp::Limits shortLimits;
    shortLimits.maxBlocks = 40;
    inputs.emplace_back(&suite[0], shortLimits);
    Interp::Limits longLimits;
    longLimits.maxBlocks = 3 * fetchCaptureWindow + 777;
    inputs.emplace_back(&suite[0], longLimits);

    for (const auto &[bench, limits] : inputs) {
        SCOPED_TRACE(bench->params.name + " maxBlocks=" +
                     std::to_string(limits.maxBlocks));
        const Module m = generateWorkload(bench->params);
        const ExecTrace trace = captureTrace(m, limits);
        if (limits.maxBlocks == shortLimits.maxBlocks) {
            ASSERT_LT(trace.eventCount, BsaFetchSource::lookahead);
        }
        if (limits.maxBlocks == longLimits.maxBlocks) {
            ASSERT_GT(trace.eventCount, 3 * fetchCaptureWindow);
        }

        // Conventional machine.
        const std::vector<SimResult> convBatch =
            runConventionalBatch(m, grid, trace);
        ASSERT_EQ(convBatch.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE("conv lane " + std::to_string(i));
            EXPECT_EQ(runConventional(m, grid[i], trace), convBatch[i]);
        }

        // Block-structured machine.
        BsaModule bsa =
            enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
        layoutBsaModule(bsa);
        const std::vector<SimResult> bsaBatch =
            runBlockStructuredBatch(bsa, grid, trace);
        ASSERT_EQ(bsaBatch.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE("bsa lane " + std::to_string(i));
            EXPECT_EQ(runBlockStructured(bsa, grid[i], trace), bsaBatch[i]);
        }
    }
}

TEST(Lockstep, OddBatchSizesMatchFullBatch)
{
    const std::vector<MachineConfig> grid = grid16();
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const ExecTrace trace = captureTrace(m, testLimits(suite[0]));
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);

    const std::vector<SimResult> convFull =
        runConventionalBatch(m, grid, trace);
    const std::vector<SimResult> bsaFull =
        runBlockStructuredBatch(bsa, grid, trace);

    // Chunked sub-batches — size 1 exercises the singleton fallback,
    // size 3 leaves a ragged tail, size N is the full batch again.
    for (const std::size_t chunk : {std::size_t(1), std::size_t(3),
                                    grid.size()}) {
        SCOPED_TRACE("chunk size " + std::to_string(chunk));
        for (std::size_t base = 0; base < grid.size(); base += chunk) {
            const std::size_t n =
                std::min(chunk, grid.size() - base);
            const std::vector<MachineConfig> sub(
                grid.begin() + std::ptrdiff_t(base),
                grid.begin() + std::ptrdiff_t(base + n));
            const std::vector<SimResult> convSub =
                runConventionalBatch(m, sub, trace);
            const std::vector<SimResult> bsaSub =
                runBlockStructuredBatch(bsa, sub, trace);
            for (std::size_t i = 0; i < n; ++i) {
                SCOPED_TRACE("lane " + std::to_string(base + i));
                EXPECT_EQ(convFull[base + i], convSub[i]);
                EXPECT_EQ(bsaFull[base + i], bsaSub[i]);
            }
        }
    }
}

/** Grids aimed squarely at the batch drivers' sharing machinery:
 *  literal duplicate configs (collapsed to one lane), perfect-
 *  prediction lanes whose dead predictor geometry differs
 *  (canonicalised into one prediction group), same-predictor lanes
 *  differing only in caches or width (one fetch side, one icache each),
 *  and several distinct dcache geometries (multiple shared
 *  committed-order dcache streams).  Each lane must still be
 *  bit-identical to its own sequential singleton run. */
TEST(Lockstep, SharedStateGridsMatchSingletons)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const ExecTrace trace = captureTrace(m, testLimits(suite[0]));
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);

    std::vector<MachineConfig> grid;
    MachineConfig base;
    grid.push_back(base);
    grid.push_back(base);  // exact duplicate: dedup path
    {
        // Perfect lanes with different (dead) predictor geometry —
        // effectively identical, and grouped with each other.
        MachineConfig p = base;
        p.perfectPrediction = true;
        p.predictor.historyBits = 4;
        grid.push_back(p);
        p.predictor.historyBits = 14;
        grid.push_back(p);
        // ...unless live state differs: same dead predictor, bigger
        // dcache — same prediction group, private dcache stream.
        p.dcache.sizeBytes = 64 * 1024;
        grid.push_back(p);
    }
    {
        // Same predictor, different width/caches: one prediction
        // group whose lanes each run their own icache over the same
        // fetch stream, in two geometries.
        MachineConfig w = base;
        w.issueWidth = 8;
        grid.push_back(w);
        w.icache.sizeBytes = 8 * 1024;
        grid.push_back(w);
        w.dcache.sizeBytes = 4 * 1024;
        grid.push_back(w);
        // Different predictor geometry: its own group.
        w.predictor.historyBits = 6;
        grid.push_back(w);
    }

    const std::vector<SimResult> convBatch =
        runConventionalBatch(m, grid, trace);
    const std::vector<SimResult> bsaBatch =
        runBlockStructuredBatch(bsa, grid, trace);
    ASSERT_EQ(convBatch.size(), grid.size());
    ASSERT_EQ(bsaBatch.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        EXPECT_EQ(runConventional(m, grid[i], trace), convBatch[i]);
        EXPECT_EQ(runBlockStructured(bsa, grid[i], trace), bsaBatch[i]);
    }
}

/** Two identical configs collapse to one lane, which steps every unit
 *  as a batch of one on the shared dcache stream.  Where the op budget
 *  cuts a trace inside the block-structured machine's last atomic
 *  block, that block's memory ops past the cut run past the address
 *  pool (they read address 0), so the lone lane must fork a private
 *  dcache at the pool's end and still match the singleton replay,
 *  whose one cache saw every access. */
TEST(Lockstep, LoneLaneForksDcacheAtPoolEnd)
{
    const MachineConfig base;
    const std::vector<MachineConfig> twins = {base, base};
    std::size_t pastPool = 0;
    for (const SpecBenchmark &bench : specint95Suite()) {
        SCOPED_TRACE(bench.params.name);
        const Module m = generateWorkload(bench.params);
        const ExecTrace trace = captureTrace(m, testLimits(bench));
        BsaModule bsa =
            enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
        layoutBsaModule(bsa);

        const SimResult conv = runConventional(m, base, trace);
        const SimResult blockStructured =
            runBlockStructured(bsa, base, trace);
        for (const SimResult &lane : runConventionalBatch(m, twins, trace))
            EXPECT_EQ(conv, lane);
        for (const SimResult &lane :
             runBlockStructuredBatch(bsa, twins, trace))
            EXPECT_EQ(blockStructured, lane);
        EXPECT_EQ(lockstepLastFetchStats().lanes, 1u);
        EXPECT_EQ(lockstepLastFetchStats().maxBatchLanes, 1u);
        if (blockStructured.dcache.accesses > trace.memAddrCount)
            ++pastPool;
    }
    // At least one budget must cut an atomic block this way, or the
    // fork goes unexercised.
    EXPECT_GT(pastPool, 0u);
}

TEST(Lockstep, PairSweepGroupsByModelAndEnlargement)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const ExecTrace trace = captureTrace(m, testLimits(suite[0]));

    std::vector<RunConfig> configs;
    RunConfig shared;
    configs.push_back(shared);
    RunConfig wider = shared;
    wider.machine.issueWidth = 8;
    configs.push_back(wider);  // same enlargement: shares the walk
    RunConfig narrow = shared;
    narrow.enlarge.maxFaults = 1;
    configs.push_back(narrow);  // distinct enlargement: own group
    RunConfig ooo = shared;
    ooo.machine.timingModel = TimingModel::Ooo;
    configs.push_back(ooo);  // same enlargement, other timing model

    PairSweep sweep;
    const std::size_t b = sweep.addBenchmark(m, heldTrace(trace));
    for (const RunConfig &config : configs)
        sweep.addPoint(b, config);
    const std::vector<PairResult> &results = sweep.run();

    // Conventional: one abstract batch (three points) + one OoO
    // batch.  Block-structured: the shared enlargement's abstract
    // pair, the narrow enlargement, and the OoO point.
    EXPECT_EQ(sweep.batchCount(), 5u);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        const PairResult seq = runPair(m, configs[i], trace);
        EXPECT_EQ(seq.conv, results[i].conv);
        EXPECT_EQ(seq.bsa, results[i].bsa);
        EXPECT_EQ(seq.convCodeBytes, results[i].convCodeBytes);
        EXPECT_EQ(seq.bsaCodeBytes, results[i].bsaCodeBytes);
        EXPECT_EQ(seq.dynOps, results[i].dynOps);
    }
    // The OoO point is a different machine, not a relabelled lane.
    EXPECT_NE(results[3].conv.cycles, results[0].conv.cycles);
}

/** Thirty-three mutually divergent configs, so prefix batches cover
 *  every lane count a kernel can see around its width boundaries:
 *  1 (singleton fallback), 2..7 (narrow batches the vector kernels
 *  delegate to the scalar path), 8 and multiples (whole vector
 *  quads), ragged tails, and 33 (> half a 64-lane chunk, odd). */
std::vector<MachineConfig>
grid33()
{
    std::vector<MachineConfig> grid;
    for (unsigned i = 0; i < 33; ++i) {
        MachineConfig m;
        m.issueWidth = 4u << (i % 3);
        m.predictor.historyBits = 4 + (i % 11);
        m.perfectPrediction = (i % 7) == 3;
        m.icache.sizeBytes = (8u << (i % 4)) * 1024;
        m.dcache.sizeBytes = (4u << (i % 3)) * 1024;
        grid.push_back(m);
    }
    return grid;
}

TEST(Lockstep, EveryLaneCountOneThroughThirtyThree)
{
    const std::vector<MachineConfig> grid = grid33();
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const ExecTrace trace = captureTrace(m, testLimits(suite[0]));
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);

    std::vector<SimResult> convSeq, bsaSeq;
    for (const MachineConfig &config : grid) {
        convSeq.push_back(runConventional(m, config, trace));
        bsaSeq.push_back(runBlockStructured(bsa, config, trace));
    }

    for (std::size_t n = 1; n <= grid.size(); ++n) {
        SCOPED_TRACE("lane count " + std::to_string(n));
        const std::vector<MachineConfig> prefix(
            grid.begin(), grid.begin() + std::ptrdiff_t(n));
        const std::vector<SimResult> conv =
            runConventionalBatch(m, prefix, trace);
        const std::vector<SimResult> bsa2 =
            runBlockStructuredBatch(bsa, prefix, trace);
        ASSERT_EQ(conv.size(), n);
        ASSERT_EQ(bsa2.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            EXPECT_EQ(convSeq[i], conv[i]);
            EXPECT_EQ(bsaSeq[i], bsa2[i]);
        }
    }
}

/** The decoupled drivers' instrumentation: grid16 dedups to twelve
 *  lanes in three prediction groups (hist8, hist12, perfect), so the
 *  fused walk must issue batches wider than any single four-lane
 *  group — on average, not just at its widest — the memoized decode
 *  must be hit more often than it fills, and the conventional
 *  pre-pass must run each group's predictor exactly once per trace
 *  event. */
TEST(Lockstep, FetchStatsReportFusionAndMemoReuse)
{
    const std::vector<MachineConfig> grid = grid16();
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);

    // The long trace spans more than three capture windows, so the
    // memo must carry its tail across window boundaries for the exact
    // one-group count at the end to hold.
    Interp::Limits longLimits;
    longLimits.maxBlocks = 3 * fetchCaptureWindow + 777;
    for (const Interp::Limits &limits :
         {testLimits(suite[0]), longLimits}) {
        SCOPED_TRACE("maxBlocks=" + std::to_string(limits.maxBlocks));
        const ExecTrace trace = captureTrace(m, limits);

        runBlockStructuredBatch(bsa, grid, trace);
        {
            const LockstepFetchStats &fs = lockstepLastFetchStats();
            EXPECT_TRUE(fs.fused);
            EXPECT_EQ(fs.groups, 3u);
            EXPECT_EQ(fs.lanes, 12u);
            // The fusion satellite: cross-group batches must exceed
            // the four-lane width a prediction group caps out at.
            EXPECT_GT(fs.maxBatchLanes, 4u);
            EXPECT_GT(fs.fetchSteps, 0u);
            // Memo hit rate: predictSuccessor and captureStep both
            // probe the per-position decode memo, so lookups run
            // about twice the computes (each position is filled at
            // most once).
            EXPECT_GT(fs.memoComputes, 0u);
            EXPECT_GT(fs.memoLookups, fs.memoComputes);
            EXPECT_GE(fs.memoLookups + fs.groups, 2 * fs.memoComputes);
            EXPECT_GT(fs.timingBatches, 0u);
            EXPECT_GT(fs.timingLaneSteps, fs.fetchSteps);
            // Mean batch width beyond the widest group: most steps
            // fuse across groups.
            EXPECT_GT(fs.timingLaneSteps, 4 * fs.timingBatches);
        }

        runConventionalBatch(m, grid, trace);
        {
            const LockstepFetchStats &fs = lockstepLastFetchStats();
            EXPECT_TRUE(fs.fused);
            EXPECT_EQ(fs.groups, 3u);
            EXPECT_EQ(fs.lanes, 12u);
            // Conventional units are the trace events themselves: the
            // pre-pass walks each group's predictor once per event.
            EXPECT_EQ(fs.fetchSteps, trace.eventCount * fs.groups);
            EXPECT_EQ(fs.maxBatchLanes, 12u);
        }

        // One prediction group touches only the positions it commits
        // at, so it computes each exactly once, window after window.
        std::vector<MachineConfig> oneGroup(2);
        oneGroup[1].issueWidth = 2 * oneGroup[0].issueWidth;
        runBlockStructuredBatch(bsa, oneGroup, trace);
        {
            const LockstepFetchStats &fs = lockstepLastFetchStats();
            EXPECT_EQ(fs.groups, 1u);
            EXPECT_EQ(fs.memoComputes, fs.fetchSteps);
        }
    }
}

/** Restores the environment-driven kernel selection on scope exit, so
 *  a failing test cannot leak a forced kernel into later tests. */
class ScopedSimdReset
{
  public:
    ~ScopedSimdReset() { simdReset(); }
};

/** The op-major scalar kernel must match the one-lane singleton
 *  replays (which never enter a kernel), and the AVX2 kernel must
 *  match the scalar one. */
TEST(Lockstep, ScalarMatchesSingletonsAndSimdMatchesScalar)
{
    const std::vector<MachineConfig> grid = grid16();
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const ExecTrace trace = captureTrace(m, testLimits(suite[0]));
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);

    const ScopedSimdReset restore;

    ASSERT_TRUE(simdSetMode(SimdMode::Scalar));
    EXPECT_STREQ(simdKernels().name, "scalar");
    const std::vector<SimResult> convScalar =
        runConventionalBatch(m, grid, trace);
    const std::vector<SimResult> bsaScalar =
        runBlockStructuredBatch(bsa, grid, trace);

    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        EXPECT_EQ(runConventional(m, grid[i], trace), convScalar[i]);
        EXPECT_EQ(runBlockStructured(bsa, grid[i], trace), bsaScalar[i]);
    }

    // BSISA_FORCE_SCALAR must pin the scalar kernel through the
    // environment-driven selection path as well.
    {
        ScopedEnv force("BSISA_FORCE_SCALAR", "1");
        simdReset();
        EXPECT_STREQ(simdKernels().name, "scalar");
    }
    simdReset();

    if (!simdSetMode(SimdMode::Avx2))
        GTEST_SKIP() << "AVX2 unavailable on this host/build";
    EXPECT_STREQ(simdKernels().name, "avx2");
    const std::vector<SimResult> convSimd =
        runConventionalBatch(m, grid, trace);
    const std::vector<SimResult> bsaSimd =
        runBlockStructuredBatch(bsa, grid, trace);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        EXPECT_EQ(convScalar[i], convSimd[i]);
        EXPECT_EQ(bsaScalar[i], bsaSimd[i]);
    }
}

/** Checked-in fuzz-corpus programs (generator-produced control-flow
 *  shapes the synthetic SPEC workloads do not hit) replayed through
 *  the lockstep engine under both kernel paths, against sequential
 *  singletons as the oracle. */
TEST(Lockstep, FuzzCorpusReplayMatchesUnderBothKernels)
{
    const std::vector<std::string> names =
        fuzz::listCorpus(BSISA_FUZZ_CORPUS_DIR);
    ASSERT_FALSE(names.empty());

    // Eight lanes: one vector's worth plus divergent behavior.
    std::vector<MachineConfig> grid;
    for (unsigned i = 0; i < 8; ++i) {
        MachineConfig config;
        config.issueWidth = (i & 1) ? 16 : 4;
        config.predictor.historyBits = 4 + 2 * (i % 4);
        config.icache.sizeBytes = (i & 2) ? 8 * 1024 : 64 * 1024;
        grid.push_back(config);
    }

    Interp::Limits limits;
    limits.maxOps = 1u << 18;

    const ScopedSimdReset restore;
    const bool haveAvx2 = simdAvx2Kernels() != nullptr;

    // Every fifth entry keeps the walk cheap while still covering
    // several generator profiles (names sort by profile).
    for (std::size_t ni = 0; ni < names.size(); ni += 5) {
        const std::string &name = names[ni];
        SCOPED_TRACE(name);
        std::string source;
        fuzz::Expectation want;
        ASSERT_TRUE(fuzz::readCorpusEntry(BSISA_FUZZ_CORPUS_DIR, name,
                                          source, want));
        const Module m = compileBlockCOrDie(source);
        const ExecTrace trace = captureTrace(m, limits);
        BsaModule bsa =
            enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
        layoutBsaModule(bsa);

        std::vector<SimResult> convSeq, bsaSeq;
        for (const MachineConfig &config : grid) {
            convSeq.push_back(runConventional(m, config, trace));
            bsaSeq.push_back(runBlockStructured(bsa, config, trace));
        }

        for (const SimdMode mode : {SimdMode::Scalar, SimdMode::Avx2}) {
            if (mode == SimdMode::Avx2 && !haveAvx2)
                continue;
            SCOPED_TRACE(mode == SimdMode::Avx2 ? "avx2" : "scalar");
            ASSERT_TRUE(simdSetMode(mode));
            const std::vector<SimResult> conv =
                runConventionalBatch(m, grid, trace);
            const std::vector<SimResult> bsaBatch =
                runBlockStructuredBatch(bsa, grid, trace);
            for (std::size_t i = 0; i < grid.size(); ++i) {
                SCOPED_TRACE("lane " + std::to_string(i));
                EXPECT_EQ(convSeq[i], conv[i]);
                EXPECT_EQ(bsaSeq[i], bsaBatch[i]);
            }
        }
    }
}

TEST(Lockstep, SweepIsDeterministicAcrossJobs)
{
    const auto suite = specint95Suite();
    std::vector<Module> modules;
    std::vector<ExecTrace> traces;
    for (std::size_t i = 0; i < 3; ++i) {
        modules.push_back(generateWorkload(suite[i].params));
        traces.push_back(
            captureTrace(modules[i], testLimits(suite[i])));
    }

    auto runSweep = [&](const char *jobs) {
        ScopedEnv env("BSISA_JOBS", jobs);
        PairSweep sweep;
        for (std::size_t i = 0; i < modules.size(); ++i) {
            const std::size_t b =
                sweep.addBenchmark(modules[i], heldTrace(traces[i]));
            for (const unsigned hist : {4u, 8u, 12u, 16u}) {
                RunConfig config;
                config.machine.predictor.historyBits = hist;
                sweep.addPoint(b, config);
            }
        }
        return sweep.run();
    };

    const std::vector<PairResult> serial = runSweep("1");
    const std::vector<PairResult> fanned = runSweep("3");
    ASSERT_EQ(serial.size(), fanned.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        EXPECT_EQ(serial[i].conv, fanned[i].conv);
        EXPECT_EQ(serial[i].bsa, fanned[i].bsa);
    }
}

// PairSweep holds a benchmark's trace from its first batch to its
// last: each source is acquired exactly once per run(), the sweep
// keeps no reference after it, and the results are the ones a sweep
// over caller-held traces produced (the pinned digest, computed by
// the registration API that took a const ExecTrace & over these
// points) for any worker count.
TEST(Lockstep, PairSweepHoldsEachTraceOnlyWhileItRuns)
{
    const auto suite = specint95Suite();
    std::vector<Module> modules;
    for (std::size_t i = 0; i < 3; ++i)
        modules.push_back(generateWorkload(suite[i].params));
    // Per benchmark: one abstract conventional batch of four lanes
    // and an OoO one; block-structured, the shared enlargement's
    // three abstract lanes, the other enlargement and the OoO point.
    std::vector<RunConfig> configs(5);
    configs[1].machine.predictor.historyBits = 4;
    configs[2].machine.icache.sizeBytes = 16 * 1024;
    configs[3].enlarge.maxFaults = 1;
    configs[4].machine.timingModel = TimingModel::Ooo;

    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(std::string("BSISA_JOBS=") + jobs);
        ScopedEnv env("BSISA_JOBS", jobs);
        std::vector<std::size_t> acquired(modules.size(), 0);
        std::vector<std::weak_ptr<const ExecTrace>> handed(
            modules.size());
        PairSweep sweep;
        for (std::size_t i = 0; i < modules.size(); ++i) {
            const Interp::Limits limits = testLimits(suite[i]);
            const std::size_t b = sweep.addBenchmark(
                modules[i],
                {limits.maxOps, [&, i, limits] {
                     ++acquired[i];
                     auto trace = std::make_shared<const ExecTrace>(
                         captureTrace(modules[i], limits));
                     handed[i] = trace;
                     return trace;
                 }});
            for (const RunConfig &config : configs)
                sweep.addPoint(b, config);
        }
        const std::vector<PairResult> &results = sweep.run();
        EXPECT_EQ(sweep.batchCount(), 15u);
        for (std::size_t i = 0; i < modules.size(); ++i) {
            EXPECT_EQ(acquired[i], 1u) << suite[i].params.name;
            EXPECT_TRUE(handed[i].expired()) << suite[i].params.name;
        }
        Fnv1a64 digest;
        for (const PairResult &r : results) {
            const ResultRecord record = makeResultRecord(0, 0, 0, r);
            digest.bytes(&record, sizeof(record));
        }
        EXPECT_EQ(hex16(digest.value()), "f26ba611b6fce577");
    }
}
