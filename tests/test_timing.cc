/**
 * @file
 * Tests for the cycle-level timing models: structural invariants,
 * latency sensitivity, window/icache/predictor effects, and the
 * conventional-vs-block-structured relationships the paper reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "codegen/layout.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "sim/pipeline.hh"
#include "support/rng.hh"

using namespace bsisa;

namespace
{

/** A loopy branchy program large enough to exercise the machinery. */
const char *kWorkload = R"(
    var d[64];
    var out[64];
    fn helper(x, i) {
        var t = x + i;
        if (d[i & 63] & 1) { t = t * 3 + 1; } else { t = t + 7; }
        if (d[(i + 7) & 63] < 8) { t = t ^ i; }
        out[i & 63] = t;
        return t & 0xffff;
    }
    fn main() {
        var acc = 0;
        for (var i = 0; i < 400; i = i + 1) {
            acc = acc + helper(acc, i);
            acc = acc & 0xfffff;
        }
        return acc;
    }
)";

Module
workloadModule(std::uint64_t seed)
{
    Module m = compileBlockCOrDie(kWorkload);
    Rng rng(seed);
    for (auto &word : m.data)
        word = rng.nextBelow(16);
    return m;
}

RunConfig
defaultRun()
{
    RunConfig config;
    config.limits.maxOps = 1u << 22;
    return config;
}

} // namespace

TEST(IssueSlots, RespectsWidth)
{
    IssueSlots slots(2);
    EXPECT_EQ(slots.allocate(10), 10u);
    EXPECT_EQ(slots.allocate(10), 10u);
    EXPECT_EQ(slots.allocate(10), 11u);  // cycle 10 is full
    EXPECT_EQ(slots.allocate(10), 11u);
    EXPECT_EQ(slots.allocate(10), 12u);
    slots.advanceTo(12);
    // Cycle 12 has one of two slots used, so it still has room.
    EXPECT_EQ(slots.allocate(12), 12u);
    EXPECT_EQ(slots.allocate(12), 13u);
}

TEST(IssueSlots, WindowBoundaryAliasingDoesNotSkipFreeCycles)
{
    // The ring wraps: with base = 32 the window is [32, 4128), its
    // final cycles 4096..4127 take slots 0..31, and the early cycles
    // 32..63 the slots right after them.  Fill both; the first free
    // cycle is then exactly base + capacity (4128), and the allocator
    // must grow and claim it — not read a wrapped early cycle's count
    // as its own.
    {
        IssueSlots slots(1);
        slots.advanceTo(32);
        for (std::uint64_t c = 32; c < 64; ++c)
            EXPECT_EQ(slots.allocate(c), c);  // aliased bits 32..63
        for (std::uint64_t c = 4096; c < 4128; ++c)
            EXPECT_EQ(slots.allocate(4096), c);  // window tail
        EXPECT_EQ(slots.allocate(4096), 4128u);
    }
    // Same shape with early cycle 48 free: its slot belongs to cycle
    // 48, not to cycle 4144.
    {
        IssueSlots slots(1);
        slots.advanceTo(32);
        for (std::uint64_t c = 32; c < 64; ++c) {
            if (c == 48)
                continue;
            EXPECT_EQ(slots.allocate(c), c);
        }
        for (std::uint64_t c = 4096; c < 4128; ++c)
            EXPECT_EQ(slots.allocate(4096), c);
        EXPECT_EQ(slots.allocate(4096), 4128u);
        // And cycle 48 really is still free for a request behind it.
        EXPECT_EQ(slots.allocate(48), 48u);
    }
}

TEST(IssueSlots_, MatchesReferenceOverRandomStreams)
{
    // A brute-force per-cycle count map: a claim takes the first
    // cycle at or after max(floor, base) whose count is below width.
    for (const unsigned width : {1u, 2u, 3u, 16u, 255u}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SCOPED_TRACE("width " + std::to_string(width) + " seed " +
                         std::to_string(seed));
            IssueSlots slots(width);
            std::map<std::uint64_t, unsigned> ref;
            std::uint64_t base = 0;
            Rng rng(seed * 1000 + width);
            for (int step = 0; step < 4000; ++step) {
                const std::uint64_t pick = rng.nextBelow(100);
                if (pick < 10) {
                    // Forward by a few cycles, now and then by more
                    // than the whole window.
                    base += pick == 0 ? rng.nextBelow(20000)
                                      : rng.nextBelow(40);
                    slots.advanceTo(base);
                    ref.erase(ref.begin(), ref.lower_bound(base));
                    continue;
                }
                // Floors behind base, near it, and (forcing a grow)
                // more than 4096 cycles ahead of it.
                std::uint64_t floor;
                if (pick < 15)
                    floor = base - std::min<std::uint64_t>(
                                       base, rng.nextBelow(8));
                else if (pick < 18)
                    floor = base + 4096 + rng.nextBelow(30000);
                else
                    floor = base + rng.nextBelow(64);
                // Bursts at one floor fill whole cycles.
                const std::uint64_t claims =
                    1 + rng.nextBelow(pick < 40 ? 2 * width + 2 : 4);
                for (std::uint64_t k = 0; k < claims; ++k) {
                    std::uint64_t want = std::max(floor, base);
                    while (ref[want] >= width)
                        ++want;
                    ++ref[want];
                    ASSERT_EQ(slots.allocate(floor), want)
                        << "step " << step << " floor " << floor
                        << " base " << base;
                }
            }
        }
    }
}

TEST(Layout, ConventionalAddressesAreDense)
{
    const Module m = workloadModule(1);
    const ConvLayout layout(m);
    EXPECT_EQ(layout.addrOf(0, 0), codeBase);
    std::uint64_t expect = codeBase;
    for (const auto &fn : m.functions) {
        for (BlockId b = 0; b < fn.blocks.size(); ++b) {
            EXPECT_EQ(layout.addrOf(fn.id, b), expect);
            expect += fn.blocks[b].ops.size() * opBytes;
        }
    }
    EXPECT_EQ(layout.totalBytes(), expect - codeBase);
    EXPECT_EQ(layout.totalBytes(), m.numOps() * opBytes);
}

TEST(Layout, BsaAddressesAreDense)
{
    const Module m = workloadModule(1);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    const std::uint64_t total = layoutBsaModule(bsa);
    EXPECT_EQ(total, bsa.numOps() * opBytes);
    std::uint64_t expect = codeBase;
    for (const auto &blk : bsa.blocks) {
        EXPECT_EQ(blk.addr, expect);
        expect += blk.sizeBytes();
    }
}

TEST(Timing, BasicInvariants)
{
    const Module m = workloadModule(2);
    const PairResult r = runPair(m, defaultRun());

    // The machine can at most issue issueWidth ops per cycle.
    EXPECT_GE(r.conv.cycles * 16, r.conv.retiredOps);
    EXPECT_GE(r.bsa.cycles * 16, r.bsa.retiredOps);
    // One fetch unit per cycle bounds units by cycles.
    EXPECT_GE(r.conv.cycles, r.conv.retiredUnits);
    EXPECT_GE(r.bsa.cycles, r.bsa.retiredUnits);
    // Conventional retires exactly the dynamic op count.
    EXPECT_EQ(r.conv.retiredOps, r.dynOps);
    EXPECT_GT(r.conv.cycles, 0u);
    EXPECT_GT(r.bsa.cycles, 0u);
}

TEST(Timing, BsaIncreasesBlockSize)
{
    const Module m = workloadModule(3);
    const PairResult r = runPair(m, defaultRun());
    // The core claim behind figure 5.
    EXPECT_GT(r.bsa.avgBlockSize(), r.conv.avgBlockSize() * 1.15);
    // And fewer fetch units are needed for the same work.
    EXPECT_LT(r.bsa.retiredUnits, r.conv.retiredUnits);
}

TEST(Timing, PerfectPredictionIsFaster)
{
    const Module m = workloadModule(4);
    RunConfig real = defaultRun();
    RunConfig oracle = defaultRun();
    oracle.machine.perfectPrediction = true;
    const PairResult rr = runPair(m, real);
    const PairResult ro = runPair(m, oracle);
    EXPECT_LE(ro.conv.cycles, rr.conv.cycles);
    EXPECT_LE(ro.bsa.cycles, rr.bsa.cycles);
    EXPECT_EQ(ro.conv.mispredicts, 0u);
    EXPECT_EQ(ro.bsa.mispredicts, 0u);
    EXPECT_GT(rr.conv.mispredicts, 0u);
}

TEST(Timing, PerfectIcacheIsFaster)
{
    const Module m = workloadModule(5);
    RunConfig real = defaultRun();
    real.machine.icache.sizeBytes = 1024;  // tiny: force misses
    RunConfig ideal = defaultRun();
    ideal.machine.icache.perfect = true;
    const PairResult rr = runPair(m, real);
    const PairResult ri = runPair(m, ideal);
    EXPECT_LT(ri.conv.cycles, rr.conv.cycles);
    EXPECT_LT(ri.bsa.cycles, rr.bsa.cycles);
    EXPECT_EQ(ri.conv.icache.misses, 0u);
}

TEST(Timing, SmallerIcacheNeverFaster)
{
    const Module m = workloadModule(6);
    std::uint64_t prev_cycles = 0;
    for (unsigned kb : {64u, 8u, 1u}) {
        RunConfig config = defaultRun();
        config.machine.icache.sizeBytes = kb * 1024;
        const SimResult r = runConventional(m, config.machine,
                                            config.limits);
        if (prev_cycles) {
            EXPECT_GE(r.cycles, prev_cycles);
        }
        prev_cycles = r.cycles;
    }
}

TEST(Timing, WindowLimitsMatter)
{
    const Module m = workloadModule(7);
    RunConfig wide = defaultRun();
    RunConfig narrow = defaultRun();
    narrow.machine.windowUnits = 2;
    narrow.machine.windowOps = 32;
    const PairResult rw = runPair(m, wide);
    const PairResult rn = runPair(m, narrow);
    EXPECT_GT(rn.conv.cycles, rw.conv.cycles);
    EXPECT_GT(rn.bsa.cycles, rw.bsa.cycles);
}

TEST(Timing, EnlargementDisabledRoughlyMatchesConventional)
{
    const Module m = workloadModule(8);
    RunConfig off = defaultRun();
    off.enlarge.enabled = false;
    const PairResult r = runPair(m, off);
    // Without enlargement the BSA machine fetches one basic block per
    // cycle just like the conventional one; cycle counts should agree
    // within a few percent (predictor details differ slightly).
    const double ratio = double(r.bsa.cycles) / double(r.conv.cycles);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
    EXPECT_NEAR(r.bsa.avgBlockSize(), r.conv.avgBlockSize(), 0.01);
}

TEST(Timing, FaultMispredictsArePossible)
{
    const Module m = workloadModule(9);
    const PairResult r = runPair(m, defaultRun());
    // Data-dependent interior branches guarantee some wrong-variant
    // fetches.
    EXPECT_GT(r.bsa.faultMispredicts, 0u);
    EXPECT_GT(r.bsa.predictions, 0u);
}

TEST(Timing, DeterministicAcrossRuns)
{
    const Module m = workloadModule(10);
    const PairResult a = runPair(m, defaultRun());
    const PairResult b = runPair(m, defaultRun());
    EXPECT_EQ(a.conv.cycles, b.conv.cycles);
    EXPECT_EQ(a.bsa.cycles, b.bsa.cycles);
    EXPECT_EQ(a.bsa.mispredicts, b.bsa.mispredicts);
    EXPECT_EQ(a.bsa.icache.misses, b.bsa.icache.misses);
}

TEST(Timing, LongerLatenciesSlowExecution)
{
    // A divide-heavy program must be slower than an add-heavy one of
    // the same op count, demonstrating Table-1 latencies matter.
    const char *divs = R"(
        fn main() {
            var acc = 1000000;
            for (var i = 1; i < 300; i = i + 1) { acc = acc / i + 999983; }
            return acc;
        }
    )";
    const char *adds = R"(
        fn main() {
            var acc = 1000000;
            for (var i = 1; i < 300; i = i + 1) { acc = acc + i + 999983; }
            return acc;
        }
    )";
    RunConfig config = defaultRun();
    const Module md = compileBlockCOrDie(divs);
    const Module ma = compileBlockCOrDie(adds);
    const SimResult rd = runConventional(md, config.machine,
                                         config.limits);
    const SimResult ra = runConventional(ma, config.machine,
                                         config.limits);
    // Per-op cycle cost must be clearly higher for the divide chain.
    const double d_cpi = double(rd.cycles) / double(rd.retiredOps);
    const double a_cpi = double(ra.cycles) / double(ra.retiredOps);
    EXPECT_GT(d_cpi, a_cpi * 1.5);
}
