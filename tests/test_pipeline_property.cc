/**
 * @file
 * Whole-pipeline property tests and failure-injection tests.
 *
 * The property: for random BlockC programs run through EVERY stage
 * (front end, optional inlining, optimizer, register allocator, block
 * splitting, enlargement), the block-structured program under an
 * adversarial random fetch policy produces the conventional program's
 * architectural state, and both timing models satisfy their structural
 * invariants.
 *
 * The failure-injection tests pin down that the library *rejects*
 * broken inputs instead of silently mis-simulating them.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "ir/verifier.hh"
#include "opt/inliner.hh"
#include "sim/bsa_interp.hh"
#include "sim/interp.hh"
#include "sim/trace.hh"
#include "sim_result_print.hh"
#include "support/rng.hh"

using namespace bsisa;

namespace
{

/** Random structured BlockC program covering every language feature. */
std::string
fuzzProgram(Rng &rng)
{
    std::ostringstream os;
    os << "var mem[64];\nvar gcount;\n";
    os << "library fn libf(a) { return (a >> 1) ^ (a + 13); }\n";
    const int helpers = 1 + int(rng.nextBelow(4));
    for (int h = 0; h < helpers; ++h) {
        os << "fn h" << h << "(x, y) {\n  var t = x + y;\n";
        const int items = 2 + int(rng.nextBelow(4));
        for (int i = 0; i < items; ++i) {
            switch (rng.nextBelow(6)) {
              case 0:
                os << "  if (t & " << (1 + rng.nextBelow(7))
                   << ") { t = t * 3 + 1; } else { t = t >> 1; }\n";
                break;
              case 1:
                os << "  for (var k = 0; k < "
                   << (1 + rng.nextBelow(5))
                   << "; k = k + 1) { t = t + mem[(t + k) & 63]; }\n";
                break;
              case 2:
                os << "  switch (t & 3) { case 0: { t = t + 7; }"
                      " case 1: { t = t ^ y; } case 2: { t = t - x; }"
                      " case 3: { t = libf(t); } }\n";
                break;
              case 3:
                os << "  mem[t & 63] = t; gcount = gcount + 1;\n";
                break;
              case 4:
                if (h > 0) {
                    os << "  t = t + h" << rng.nextBelow(h) << "(t & 255, "
                       << rng.nextBelow(9) << ");\n";
                } else {
                    os << "  t = t + libf(t & 1023);\n";
                }
                break;
              case 5:
                os << "  while (t > " << (100 + rng.nextBelow(900))
                   << ") { t = t - " << (37 + rng.nextBelow(200))
                   << "; }\n";
                break;
            }
        }
        os << "  return t & 0xfffff;\n}\n";
    }
    os << "fn main() {\n  var acc = 1;\n";
    os << "  for (var i = 0; i < " << (20 + rng.nextBelow(30))
       << "; i = i + 1) {\n";
    os << "    acc = (acc + h" << (helpers - 1)
       << "(i, acc & 31)) & 0xffffff;\n  }\n";
    os << "  return acc;\n}\n";
    return os.str();
}

} // namespace

class FullPipelinePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(FullPipelinePropertyTest, EveryStagePreservesTheProgram)
{
    Rng rng(90000 + GetParam());
    const std::string src = fuzzProgram(rng);

    // Reference: unoptimized, unallocated execution.
    CompileOptions raw_options;
    raw_options.optimize = false;
    raw_options.allocate = false;
    raw_options.maxBlockOps = 0;
    Module raw = compileBlockCOrDie(src, raw_options);
    for (std::size_t i = 0; i < raw.data.size(); ++i)
        raw.data[i] = rng.nextBelow(64);
    Interp ref(raw);
    ref.run();
    ASSERT_TRUE(ref.halted()) << src;

    // Full pipeline, with and without inlining.
    for (const bool with_inline : {false, true}) {
        CompileOptions options;
        options.inlineSmall = with_inline;
        Module m = compileBlockCOrDie(src, options);
        for (std::size_t i = 0; i < m.data.size(); ++i)
            m.data[i] = raw.data[i];
        ASSERT_TRUE(verifyModule(m).empty()) << src;

        Interp conv(m);
        conv.run();
        EXPECT_EQ(conv.exitValue(), ref.exitValue()) << src;
        EXPECT_EQ(conv.dataChecksum(), ref.dataChecksum()) << src;

        const BsaModule bsa = enlargeModule(m, EnlargeConfig{});
        BsaInterp adversary(bsa,
                            randomVariantPolicy(GetParam() * 7 + 1));
        adversary.run();
        EXPECT_TRUE(adversary.halted()) << src;
        EXPECT_EQ(adversary.exitValue(), ref.exitValue()) << src;
        EXPECT_EQ(adversary.dataChecksum(), ref.dataChecksum()) << src;

        // Timing invariants on both machines.
        RunConfig config;
        const PairResult r = runPair(m, config);
        EXPECT_EQ(r.conv.retiredOps, conv.dynOps()) << src;
        EXPECT_GE(r.conv.cycles * 16, r.conv.retiredOps) << src;
        EXPECT_GE(r.bsa.cycles * 16, r.bsa.retiredOps) << src;
        EXPECT_GE(r.bsa.avgBlockSize(), r.conv.avgBlockSize() * 0.99)
            << src;

        // The out-of-order backend consumes the same streams: exact
        // committed-op agreement with the abstract model, ROB bounded
        // by its configuration, and a deterministic rerun.
        RunConfig oooConfig;
        oooConfig.machine.timingModel = TimingModel::Ooo;
        const PairResult o = runPair(m, oooConfig);
        EXPECT_EQ(o.conv.retiredOps, r.conv.retiredOps) << src;
        EXPECT_EQ(o.conv.retiredUnits, r.conv.retiredUnits) << src;
        EXPECT_EQ(o.bsa.retiredOps, r.bsa.retiredOps) << src;
        EXPECT_EQ(o.bsa.retiredUnits, r.bsa.retiredUnits) << src;
        EXPECT_LE(o.conv.peakWindowOps, oooConfig.machine.ooo.robOps)
            << src;
        EXPECT_LE(o.bsa.peakWindowOps, oooConfig.machine.ooo.robOps)
            << src;
        const PairResult o2 = runPair(m, oooConfig);
        EXPECT_EQ(o.conv.cycles, o2.conv.cycles) << src;
        EXPECT_EQ(o.bsa.cycles, o2.bsa.cycles) << src;
    }
}

// Identical (trace, config) pairs must produce bit-identical results
// down every execution path that can compute them: the sequential
// per-config replay and a lockstep batch containing the config (for
// OoO lanes, the batch partition's singleton path).  The same test
// compiled under -DBSISA_DISABLE_SIMD=ON covers the scalar-kernel
// build, so a cross-build result drift fails CI in either build.
TEST(FullPipelineProperty, TimingResultsAreBitIdenticalAcrossPaths)
{
    Rng rng(97);
    const std::string src = fuzzProgram(rng);
    Module m = compileBlockCOrDie(src);
    for (std::size_t i = 0; i < m.data.size(); ++i)
        m.data[i] = rng.nextBelow(64);
    Interp::Limits limits;
    const ExecTrace trace = captureTrace(m, limits);

    for (const TimingModel model :
         {TimingModel::Abstract, TimingModel::Ooo}) {
        MachineConfig machine;
        machine.timingModel = model;
        MachineConfig narrow = machine;
        narrow.issueWidth = 8;

        const SimResult solo = runConventional(m, machine, trace);
        const SimResult rerun = runConventional(m, machine, trace);
        const std::vector<SimResult> batch = runConventionalBatch(
            m, std::vector<MachineConfig>{machine, narrow}, trace);

        EXPECT_EQ(solo, rerun);
        EXPECT_EQ(solo, batch[0]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullPipelinePropertyTest,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------------
// Failure injection: broken inputs must be rejected loudly.
// ---------------------------------------------------------------------

using PipelineDeathTest = ::testing::Test;

TEST(PipelineDeathTest, InterpPanicsOnFaultInConventionalCode)
{
    Module m;
    Function &f = m.addFunction("main");
    m.mainFunc = f.id;
    f.newBlock();
    f.blocks[0].ops = {makeFault(4, 0), makeHalt()};
    Interp interp(m);
    EXPECT_DEATH(interp.run(), "fault operation reached");
}

TEST(PipelineDeathTest, EnlargePanicsOnOversizedBlocks)
{
    // Enlargement requires blocks already split to <= maxOps.
    Module m;
    Function &f = m.addFunction("main");
    m.mainFunc = f.id;
    f.newBlock();
    for (int i = 0; i < 20; ++i)
        f.blocks[0].ops.push_back(makeMovI(4, i));
    f.blocks[0].ops.push_back(makeHalt());
    EXPECT_DEATH(enlargeModule(m, EnlargeConfig{}),
                 "exceeds the issue width");
}

TEST(PipelineDeathTest, UnalignedAccessIsFatal)
{
    Module m;
    Function &f = m.addFunction("main");
    m.mainFunc = f.id;
    f.newBlock();
    f.blocks[0].ops = {makeMovI(4, 3), makeLd(5, 4, 0), makeHalt()};
    Interp interp(m);
    EXPECT_DEATH(interp.run(), "unaligned");
}

TEST(PipelineDeathTest, RunawayRecursionIsFatal)
{
    const std::string src = R"(
        fn forever(n) { return forever(n + 1); }
        fn main() { return forever(0); }
    )";
    const Module m = compileBlockCOrDie(src);
    Interp interp(m);
    EXPECT_DEATH(interp.run(), "call stack overflow");
}

TEST(PipelineDeathTest, CompileOrDieExitsOnBadSource)
{
    EXPECT_EXIT(compileBlockCOrDie("fn main() { oops; }"),
                ::testing::ExitedWithCode(1), "compilation failed");
}
