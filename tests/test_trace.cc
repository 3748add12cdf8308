/**
 * @file
 * Trace capture/replay equivalence tests.
 *
 * A captured trace must be indistinguishable from driving a live
 * interpreter: event by event the streams match, addresses included.
 * Every timing model (conventional, BSA, trace cache) produces a
 * bit-identical SimResult from one shared trace and from its
 * Interp::Limits entry point, which runs the interpreter afresh.
 * runPair (capture-once) must match the seed's one-execution-per-
 * consumer composition on all eight benchmarks.
 */

#include <gtest/gtest.h>

#include "cache/trace_cache.hh"
#include "codegen/layout.hh"
#include "core/profile.hh"
#include "exp/runner.hh"
#include "sim/trace.hh"
#include "sim_result_print.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

/** Small-scale limits: enough dynamic blocks to exercise calls,
 *  indirect jumps, mispredicts, and cache misses. */
Interp::Limits
testLimits(const SpecBenchmark &bench)
{
    Interp::Limits limits;
    limits.maxOps = bench.scaledBudget(4000);
    return limits;
}

/** The seed's runPair: a private functional execution per consumer. */
PairResult
runPairDirect(const Module &module, const RunConfig &config)
{
    PairResult result;
    const ConvLayout conv_layout(module);
    result.convCodeBytes = conv_layout.totalBytes();
    result.conv =
        runConventional(module, config.machine, config.limits);

    EnlargeConfig enlarge_cfg = config.enlarge;
    ProfileData profile;
    const ProfileData *profile_ptr = nullptr;
    if (config.minMergeBias > 0.0) {
        profile = collectProfile(module, config.limits.maxOps);
        profile_ptr = &profile;
        enlarge_cfg.minMergeBias = config.minMergeBias;
    }
    BsaModule bsa =
        enlargeModule(module, enlarge_cfg, profile_ptr, &result.enlarge);
    result.bsaCodeBytes = layoutBsaModule(bsa);
    result.bsa =
        runBlockStructured(bsa, config.machine, config.limits);

    Interp interp(module, config.limits);
    interp.run();
    result.dynOps = interp.dynOps();
    return result;
}

} // namespace

TEST(Trace, ReplayStreamMatchesInterp)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);  // compress
    const Interp::Limits limits = testLimits(suite[0]);

    const ExecTrace trace = captureTrace(m, limits);
    ASSERT_NE(trace.eventCount, 0u);

    Interp interp(m, limits);
    BlockEvent live;
    std::uint64_t n = 0;
    while (interp.step(live)) {
        ASSERT_LT(n, trace.eventCount) << "live stream is longer";
        const TraceEvent &te = trace.events[n];
        ASSERT_EQ(live.func, te.func) << "at event " << n;
        ASSERT_EQ(live.block, te.block) << "at event " << n;
        ASSERT_EQ(live.exit, te.exit) << "at event " << n;
        ASSERT_EQ(live.taken, te.taken) << "at event " << n;
        // Derived from the next event, or the tail at the last one.
        ASSERT_EQ(live.nextFunc, trace.nextFunc(n)) << "at event " << n;
        ASSERT_EQ(live.nextBlock, trace.nextBlock(n)) << "at event " << n;
        ASSERT_EQ(live.memCount, trace.memCount(n)) << "at event " << n;
        ASSERT_LE(te.memBegin + trace.memCount(n), trace.memAddrCount)
            << "at event " << n;
        for (std::uint32_t a = 0; a < live.memCount; ++a)
            ASSERT_EQ(live.memAddrs[a], trace.memAddrs[te.memBegin + a])
                << "at event " << n << " addr " << a;
        ++n;
    }
    EXPECT_EQ(n, trace.eventCount);
    EXPECT_EQ(trace.dynOps, interp.dynOps());
    EXPECT_EQ(trace.dynBlocks, interp.dynBlocks());
}

TEST(Trace, CaptureRespectsLimits)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxBlocks = 100;
    const ExecTrace trace = captureTrace(m, limits);
    EXPECT_EQ(trace.eventCount, 100u);
    EXPECT_EQ(trace.dynBlocks, 100u);
}

TEST(Trace, ProfileFromTraceMatchesCollectProfile)
{
    const auto suite = specint95Suite();
    for (const auto &bench : suite) {
        const Module m = generateWorkload(bench.params);
        const Interp::Limits limits = testLimits(bench);
        const ExecTrace trace = captureTrace(m, limits);
        const ProfileData from_trace = profileFromTrace(trace);
        const ProfileData from_interp =
            collectProfile(m, limits.maxOps);
        ASSERT_EQ(from_trace.size(), from_interp.size())
            << bench.params.name;
        for (const auto &fn : m.functions) {
            for (BlockId b = 0; b < fn.blocks.size(); ++b) {
                // Compare per-block counts through the public lookup.
                const FuncId f =
                    static_cast<FuncId>(&fn - m.functions.data());
                const BranchProfile pt = from_trace.lookup(f, b);
                const BranchProfile pi = from_interp.lookup(f, b);
                ASSERT_EQ(pt.taken, pi.taken) << bench.params.name;
                ASSERT_EQ(pt.notTaken, pi.notTaken)
                    << bench.params.name;
            }
        }
    }
}

TEST(Trace, ConvReplayBitIdentical)
{
    const auto suite = specint95Suite();
    for (const auto &bench : suite) {
        SCOPED_TRACE(bench.params.name);
        const Module m = generateWorkload(bench.params);
        const Interp::Limits limits = testLimits(bench);
        const MachineConfig machine;
        const ExecTrace trace = captureTrace(m, limits);
        EXPECT_EQ(runConventional(m, machine, limits),
                  runConventional(m, machine, trace));
    }
}

TEST(Trace, BsaReplayBitIdentical)
{
    const auto suite = specint95Suite();
    for (const auto &bench : suite) {
        SCOPED_TRACE(bench.params.name);
        const Module m = generateWorkload(bench.params);
        const Interp::Limits limits = testLimits(bench);
        const MachineConfig machine;
        BsaModule bsa = enlargeModule(m, EnlargeConfig{});
        layoutBsaModule(bsa);
        const ExecTrace trace = captureTrace(m, limits);
        EXPECT_EQ(runBlockStructured(bsa, machine, limits),
                  runBlockStructured(bsa, machine, trace));
    }
}

TEST(Trace, TraceCacheReplayBitIdentical)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[1].params);  // gcc
    const Interp::Limits limits = testLimits(suite[1]);
    const MachineConfig machine;
    const TraceCacheConfig tc;
    const ExecTrace trace = captureTrace(m, limits);
    const TraceCacheResult direct =
        runTraceCache(m, machine, tc, limits);
    const TraceCacheResult replayed =
        runTraceCache(m, machine, tc, trace);
    EXPECT_EQ(direct.sim, replayed.sim);
    EXPECT_EQ(direct.traceHits, replayed.traceHits);
    EXPECT_EQ(direct.traceMisses, replayed.traceMisses);
}

TEST(Trace, RunPairMatchesSeedDirectPath)
{
    const auto suite = specint95Suite();
    for (const auto &bench : suite) {
        SCOPED_TRACE(bench.params.name);
        const Module m = generateWorkload(bench.params);
        RunConfig config;
        config.limits = testLimits(bench);
        const PairResult via_replay = runPair(m, config);
        const PairResult direct = runPairDirect(m, config);
        EXPECT_EQ(via_replay.conv, direct.conv);
        EXPECT_EQ(via_replay.bsa, direct.bsa);
        EXPECT_EQ(via_replay.convCodeBytes, direct.convCodeBytes);
        EXPECT_EQ(via_replay.bsaCodeBytes, direct.bsaCodeBytes);
        EXPECT_EQ(via_replay.dynOps, direct.dynOps);
    }
}

TEST(Trace, RunPairWithProfileMatchesSeedDirectPath)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[3].params);  // m88ksim
    RunConfig config;
    config.limits = testLimits(suite[3]);
    config.minMergeBias = 0.75;
    const PairResult via_replay = runPair(m, config);
    const PairResult direct = runPairDirect(m, config);
    EXPECT_EQ(via_replay.conv, direct.conv);
    EXPECT_EQ(via_replay.bsa, direct.bsa);
    EXPECT_EQ(via_replay.bsaCodeBytes, direct.bsaCodeBytes);
}

TEST(Trace, OnePairSharedAcrossConfigsMatchesFreshCaptures)
{
    // The sweep pattern: one capture, many machine configs.
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    RunConfig config;
    config.limits = testLimits(suite[0]);
    const ExecTrace trace = captureTrace(m, config.limits);
    for (unsigned kb : {16u, 32u, 64u}) {
        SCOPED_TRACE(kb);
        RunConfig point = config;
        point.machine.icache.sizeBytes = kb * 1024;
        const PairResult shared = runPair(m, point, trace);
        const PairResult fresh = runPair(m, point);
        EXPECT_EQ(shared.conv, fresh.conv);
        EXPECT_EQ(shared.bsa, fresh.bsa);
    }
}
