/**
 * @file
 * Direct tests of the conventional fetch source and the shared
 * pipeline's accounting: unit/op conservation, misprediction kinds
 * (trap direction, indirect target, return), redirect plumbing, and
 * the fetch-stall breakdown.
 */

#include <gtest/gtest.h>

#include "codegen/layout.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "sim/conv_source.hh"
#include "sim/pipeline.hh"
#include "support/rng.hh"
#include "workloads/synth.hh"

using namespace bsisa;

namespace
{

Module
makeProgram(const char *src, std::uint64_t seed = 7)
{
    Module m = compileBlockCOrDie(src);
    Rng rng(seed);
    for (auto &word : m.data)
        word = rng.nextBelow(8);
    return m;
}

const char *kMixed = R"(
    var d[32];
    fn pick(s) {
        var r = 0;
        switch (s & 3) {
            case 0: { r = 1; }
            case 1: { r = 2; }
            case 2: { r = 3; }
            case 3: { r = 5; }
        }
        return r;
    }
    fn main() {
        var acc = 0;
        for (var i = 0; i < 300; i = i + 1) {
            if (d[i & 31] & 1) { acc = acc + pick(i); }
            else { acc = acc + pick(acc); }
            acc = acc & 0xffff;
        }
        return acc;
    }
)";

} // namespace

TEST(ConvSource, EmitsEveryBlockExactlyOnce)
{
    const Module m = makeProgram(kMixed);
    Interp::Limits limits;

    std::uint64_t want_blocks = 0, want_ops = 0;
    {
        Interp interp(m, limits);
        interp.run();
        want_blocks = interp.dynBlocks();
        want_ops = interp.dynOps();
    }

    const ConvLayout layout(m);
    const DecodedProgram decoded = DecodedProgram::forModule(m);
    const ExecTrace trace = captureTrace(m, limits);
    MachineConfig machine;
    ConvFetchSource source(m, layout, machine, trace, decoded);
    TimingUnit unit;
    std::uint64_t units = 0, ops = 0;
    while (source.next(unit)) {
        ++units;
        ops += unit.opCount;
        // The unit's byte size equals its op count times the op size.
        EXPECT_EQ(unit.bytes, unit.opCount * opBytes);
        EXPECT_FALSE(unit.skipIcache);
    }
    EXPECT_EQ(units, want_blocks);
    EXPECT_EQ(ops, want_ops);
}

TEST(ConvSource, RedirectsPointAtThePreviousTerminator)
{
    const Module m = makeProgram(kMixed);
    const ConvLayout layout(m);
    const DecodedProgram decoded = DecodedProgram::forModule(m);
    const ExecTrace trace = captureTrace(m, Interp::Limits{});
    MachineConfig machine;
    ConvFetchSource source(m, layout, machine, trace, decoded);
    TimingUnit unit;
    std::size_t prev_ops = 0;
    std::uint64_t mispredicted_units = 0;
    while (source.next(unit)) {
        if (unit.redirect.mispredicted) {
            ++mispredicted_units;
            // Conventional mispredicts resolve at the PREVIOUS unit's
            // terminator, never inside a wrong block.
            EXPECT_FALSE(unit.redirect.resolveInWrongBlock);
            ASSERT_GT(prev_ops, 0u);
            EXPECT_EQ(unit.redirect.resolveOpIdx, prev_ops - 1);
        }
        prev_ops = unit.opCount;
    }
    EXPECT_GT(mispredicted_units, 0u);
    EXPECT_EQ(mispredicted_units, source.counters().nTrapMiss);
    EXPECT_EQ(source.counters().nFaultMiss, 0u);
}

TEST(ConvSource, IndirectJumpsArePredictedByLastTarget)
{
    // A switch whose selector cycles with period 4 settles into a
    // pattern the last-target BTB gets mostly wrong, while a constant
    // selector becomes perfectly predicted.
    const char *cycling = R"(
        fn main() {
            var acc = 0;
            for (var i = 0; i < 400; i = i + 1) {
                switch (i & 3) {
                    case 0: { acc = acc + 1; }
                    case 1: { acc = acc + 2; }
                    case 2: { acc = acc + 3; }
                    case 3: { acc = acc + 4; }
                }
            }
            return acc;
        }
    )";
    const char *constant = R"(
        fn main() {
            var acc = 0;
            for (var i = 0; i < 400; i = i + 1) {
                switch (0) {
                    case 0: { acc = acc + 1; }
                    case 1: { acc = acc + 2; }
                }
            }
            return acc;
        }
    )";
    MachineConfig machine;
    Interp::Limits limits;

    const Module mc = makeProgram(cycling);
    const SimResult rc =
        runConventional(mc, machine, limits);
    const Module ms = makeProgram(constant);
    const SimResult rs = runConventional(ms, machine, limits);

    // Cycling selector: nearly every ijmp misses under last-target.
    EXPECT_GT(rc.mispredicts, 300u);
    // Constant selector: almost never misses.
    EXPECT_LT(rs.mispredicts, 20u);
}

TEST(ConvSource, ReturnStackKeepsReturnsPredicted)
{
    const char *deep = R"(
        fn l3(a) { return a + 3; }
        fn l2(a) { return l3(a) + 2; }
        fn l1(a) { return l2(a) + 1; }
        fn main() {
            var acc = 0;
            for (var i = 0; i < 100; i = i + 1) { acc = acc + l1(i); }
            return acc;
        }
    )";
    const Module m = makeProgram(deep);
    MachineConfig machine;
    const SimResult r = runConventional(m, machine, Interp::Limits{});
    // Returns are RAS-predicted: 600 returns execute, so a broken RAS
    // would show hundreds of misses; warmup noise stays tiny.
    EXPECT_LT(r.mispredicts, 30u);
}

TEST(Pipeline, StallBreakdownAttributesCycles)
{
    // A generated workload gives a code footprint large enough to
    // thrash a deliberately tiny icache.
    WorkloadParams params;
    params.name = "stalls";
    params.seed = 3;
    params.numFuncs = 12;
    params.numLibFuncs = 2;
    params.itemsPerFunc = 8;
    const Module m = generateWorkload(params);
    MachineConfig machine;
    Interp::Limits limits;
    limits.maxOps = 200000;

    // Real predictor: redirect stalls must appear.
    const SimResult real = runConventional(m, machine, limits);
    EXPECT_GT(real.stallRedirect, 0u);

    // Perfect prediction: no redirect stalls at all.
    machine.perfectPrediction = true;
    const SimResult oracle = runConventional(m, machine, limits);
    EXPECT_EQ(oracle.stallRedirect, 0u);

    // Tiny icache: icache stalls grow sharply.
    machine.icache.sizeBytes = 1024;
    const SimResult cold = runConventional(m, machine, limits);
    EXPECT_GT(cold.stallIcache, oracle.stallIcache * 4 + 100);

    // Tiny window: window stalls appear.
    machine.icache.sizeBytes = 64 * 1024;
    machine.windowUnits = 2;
    machine.windowOps = 24;
    const SimResult narrow = runConventional(m, machine, limits);
    EXPECT_GT(narrow.stallWindow, 0u);
}

TEST(Pipeline, StallsAreBoundedByCycles)
{
    const Module m = makeProgram(kMixed);
    MachineConfig machine;
    const SimResult r = runConventional(m, machine, Interp::Limits{});
    EXPECT_LE(r.stallRedirect + r.stallWindow + r.stallIcache,
              r.cycles);
}
