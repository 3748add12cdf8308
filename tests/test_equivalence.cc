/**
 * @file
 * The central correctness property of the whole toolchain: a block-
 * structured program produced by enlargement is architecturally
 * equivalent to the conventional program it came from, for EVERY
 * legal fetch policy.
 *
 * The adversarial policy picks random variants at every head, so wrong
 * blocks are constantly fetched and must fault their way to the right
 * ones without corrupting state.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "sim/bsa_interp.hh"
#include "sim/interp.hh"
#include "sim/trace.hh"
#include "cache/trace_cache.hh"
#include "support/rng.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

struct GoldenRun
{
    std::uint64_t exit;
    std::uint64_t checksum;
    std::uint64_t blocks;
};

GoldenRun
runConventional(const Module &m)
{
    Interp interp(m);
    interp.run();
    EXPECT_TRUE(interp.halted());
    return {interp.exitValue(), interp.memChecksum(),
            interp.dynBlocks()};
}

void
expectBsaMatches(const Module &m, const BsaModule &bsa,
                 const GoldenRun &want, VariantPolicy policy,
                 const char *what)
{
    BsaInterp interp(bsa, std::move(policy));
    interp.run();
    EXPECT_TRUE(interp.halted()) << what;
    EXPECT_EQ(interp.exitValue(), want.exit) << what;
    EXPECT_EQ(interp.memChecksum(), want.checksum) << what;
    (void)m;
}

std::string
randomWorkload(Rng &rng)
{
    std::ostringstream os;
    os << "var d[32];\nvar out[32];\n";
    os << "library fn libmix(a) { if (a & 1) { return a * 3; }"
          " return a + 7; }\n";
    const int helpers = 1 + int(rng.nextBelow(3));
    for (int h = 0; h < helpers; ++h) {
        os << "fn step" << h << "(x, i) {\n";
        os << "  var t = x;\n";
        if (rng.chance(0.7)) {
            os << "  if (d[i & 31] " << (rng.chance(0.5) ? "&" : "<")
               << " " << (1 + rng.nextBelow(3))
               << ") { t = t * 2 + 1; } else { t = t + 3; }\n";
        }
        if (rng.chance(0.5)) {
            os << "  switch (t & 3) { case 0: { t = t + i; }"
                  " case 1: { t = t ^ 5; } case 2: { t = t - 2; }"
                  " case 3: { t = libmix(t); } }\n";
        }
        if (rng.chance(0.5)) {
            os << "  for (var k = 0; k < " << (1 + rng.nextBelow(4))
               << "; k = k + 1) { t = t + d[(t + k) & 31]; }\n";
        }
        os << "  out[i & 31] = t;\n  return t;\n}\n";
    }
    os << "fn main() {\n  var acc = 0;\n";
    os << "  for (var i = 0; i < 40; i = i + 1) {\n";
    for (int h = 0; h < helpers; ++h) {
        if (rng.chance(0.8))
            os << "    acc = acc + step" << h << "(acc + i, i);\n";
    }
    os << "    acc = acc & 0xffffff;\n  }\n";
    os << "  return acc;\n}\n";
    return os.str();
}

Module
compileWithData(const std::string &src, Rng &rng,
                const CompileOptions &options = {})
{
    Module m = compileBlockCOrDie(src, options);
    for (std::size_t i = 0; i < m.data.size(); ++i)
        m.data[i] = rng.nextBelow(16);
    return m;
}

} // namespace

TEST(Equivalence, SimpleProgramAllPolicies)
{
    const std::string src = R"(
        var d[8];
        fn main() {
            var x = 0;
            for (var i = 0; i < 16; i = i + 1) {
                if (d[i & 7] < 2) { x = x + i; } else { x = x * 2; }
            }
            return x;
        }
    )";
    Rng rng(3);
    const Module m = compileWithData(src, rng);
    const GoldenRun want = runConventional(m);
    const BsaModule bsa = enlargeModule(m, EnlargeConfig{});

    expectBsaMatches(m, bsa, want, firstVariantPolicy(), "first");
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        expectBsaMatches(m, bsa, want, randomVariantPolicy(seed),
                         "random");
    }
}

TEST(Equivalence, SuppressedWorkIsCounted)
{
    const std::string src = R"(
        var d[8];
        fn main() {
            var x = 0;
            for (var i = 0; i < 64; i = i + 1) {
                if (d[i & 7]) { x = x + 1; } else { x = x + 2; }
            }
            return x;
        }
    )";
    Rng rng(17);
    const Module m = compileWithData(src, rng);
    const BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    BsaInterp interp(bsa, randomVariantPolicy(99));
    interp.run();
    EXPECT_TRUE(interp.halted());
    // A random policy on a data-dependent branch must fault sometimes.
    EXPECT_GT(interp.suppressedBlocks(), 0u);
    EXPECT_GT(interp.suppressedOps(), 0u);
    EXPECT_GT(interp.committedBlocks(), 0u);
}

TEST(Equivalence, DegenerateBsaMatches)
{
    const std::string src = R"(
        fn f(a) { if (a < 3) { return a; } return a * 2; }
        fn main() {
            var s = 0;
            for (var i = 0; i < 10; i = i + 1) { s = s + f(i); }
            return s;
        }
    )";
    Rng rng(5);
    const Module m = compileWithData(src, rng);
    const GoldenRun want = runConventional(m);
    EnlargeConfig off;
    off.enabled = false;
    const BsaModule bsa = enlargeModule(m, off);
    expectBsaMatches(m, bsa, want, firstVariantPolicy(), "degenerate");
}

class EquivalencePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EquivalencePropertyTest, AdversarialFetchMatchesConventional)
{
    Rng rng(40000 + GetParam());
    const std::string src = randomWorkload(rng);
    const Module m = compileWithData(src, rng);
    const GoldenRun want = runConventional(m);
    const BsaModule bsa = enlargeModule(m, EnlargeConfig{});

    expectBsaMatches(m, bsa, want, firstVariantPolicy(), src.c_str());
    expectBsaMatches(m, bsa, want,
                     randomVariantPolicy(GetParam() * 31 + 1),
                     src.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalencePropertyTest,
                         ::testing::Range(0, 30));

TEST(Equivalence, ProfileGuidedVariantStillCorrect)
{
    Rng rng(123);
    const std::string src = randomWorkload(rng);
    const Module m = compileWithData(src, rng);
    const GoldenRun want = runConventional(m);
    const ProfileData profile = collectProfile(m, 1u << 22);
    EnlargeConfig guided;
    guided.minMergeBias = 0.8;
    const BsaModule bsa = enlargeModule(m, guided, &profile);
    expectBsaMatches(m, bsa, want, randomVariantPolicy(7), "guided");
}

TEST(Equivalence, LiftedTerminationConditionsStillCorrect)
{
    // Ablation configurations (merging across loop back edges and
    // into library code) must remain architecturally correct even
    // under adversarial fetch.
    Rng rng(777);
    const std::string src = randomWorkload(rng);
    const Module m = compileWithData(src, rng);
    const GoldenRun want = runConventional(m);

    EnlargeConfig lifted;
    lifted.mergeAcrossBackEdges = true;
    lifted.enlargeLibraryFunctions = true;
    const BsaModule bsa = enlargeModule(m, lifted);
    expectBsaMatches(m, bsa, want, firstVariantPolicy(), "lifted/first");
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        expectBsaMatches(m, bsa, want, randomVariantPolicy(seed + 50),
                         "lifted/random");
    }
}

TEST(Equivalence, SmallIssueWidthStillCorrect)
{
    Rng rng(321);
    const std::string src = randomWorkload(rng);
    CompileOptions options;
    options.maxBlockOps = 8;
    const Module m = compileWithData(src, rng, options);
    const GoldenRun want = runConventional(m);
    EnlargeConfig narrow;
    narrow.maxOps = 8;
    const BsaModule bsa = enlargeModule(m, narrow);
    for (const auto &blk : bsa.blocks)
        EXPECT_LE(blk.ops.size(), 8u);
    expectBsaMatches(m, bsa, want, randomVariantPolicy(11), "narrow");
}

TEST(Equivalence, UnallocatedModuleMatches)
{
    // Both interpreters size a register window by the same rule, so a
    // program that still uses virtual registers runs on both.
    Rng rng(909);
    const std::string src = randomWorkload(rng);
    CompileOptions options;
    options.allocate = false;
    const Module m = compileWithData(src, rng, options);
    bool virtualRegs = false;
    for (const Function &fn : m.functions)
        virtualRegs |= fn.numVirtualRegs > numArchRegs;
    ASSERT_TRUE(virtualRegs);

    const GoldenRun want = runConventional(m);
    const BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    expectBsaMatches(m, bsa, want, firstVariantPolicy(),
                     "unallocated/first");
    expectBsaMatches(m, bsa, want, randomVariantPolicy(13),
                     "unallocated/random");
}

// The timing models never touch architectural state, but each one
// independently accounts every committed operation — so committed-op
// agreement across the full (benchmark x fetch model x timing model)
// matrix is the cheap, exhaustive cross-check that the out-of-order
// backend consumes the exact stream the abstract model does.
TEST(Equivalence, TimingModelAgreementMatrix)
{
    const auto suite = specint95Suite();
    ASSERT_EQ(suite.size(), 8u);

    MachineConfig abstractM;
    MachineConfig oooM;
    oooM.timingModel = TimingModel::Ooo;

    for (const SpecBenchmark &bench : suite) {
        const std::string &name = bench.params.name;
        const Module module = generateWorkload(bench.params);
        Interp::Limits limits;
        limits.maxOps = bench.scaledBudget(10000);
        const ExecTrace trace = captureTrace(module, limits);
        ASSERT_GT(trace.dynOps, 0u) << name;

        // Conventional machine: both models commit the functional
        // stream exactly; only the cycle accounting differs.
        const SimResult convA =
            runConventional(module, abstractM, trace);
        const SimResult convO = runConventional(module, oooM, trace);
        EXPECT_EQ(convA.retiredOps, trace.dynOps) << name;
        EXPECT_EQ(convO.retiredOps, trace.dynOps) << name;
        EXPECT_EQ(convA.retiredUnits, trace.eventCount) << name;
        EXPECT_EQ(convO.retiredUnits, convA.retiredUnits) << name;
        EXPECT_NE(convA.cycles, convO.cycles) << name;
        EXPECT_NE(convA.ipc(), convO.ipc()) << name;

        // Block-structured machine: merge deletions shrink the op
        // stream identically for both models.
        const BsaModule bsa = enlargeModule(module, EnlargeConfig{});
        const SimResult bsA = runBlockStructured(bsa, abstractM, trace);
        const SimResult bsO = runBlockStructured(bsa, oooM, trace);
        EXPECT_EQ(bsO.retiredOps, bsA.retiredOps) << name;
        EXPECT_EQ(bsO.retiredUnits, bsA.retiredUnits) << name;
        EXPECT_LE(bsA.retiredOps, trace.dynOps) << name;
        EXPECT_GE(bsA.retiredOps + trace.eventCount, trace.dynOps)
            << name;

        // Trace-cache machine: same committed stream again.
        const TraceCacheConfig tcConfig;
        const TraceCacheResult tcA =
            runTraceCache(module, abstractM, tcConfig, trace);
        const TraceCacheResult tcO =
            runTraceCache(module, oooM, tcConfig, trace);
        EXPECT_EQ(tcA.sim.retiredOps, trace.dynOps) << name;
        EXPECT_EQ(tcO.sim.retiredOps, trace.dynOps) << name;
        EXPECT_EQ(tcO.sim.retiredUnits, tcA.sim.retiredUnits) << name;
    }
}
