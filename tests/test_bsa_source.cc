/**
 * @file
 * Direct tests of the block-structured fetch source: the committed
 * atomic-block stream must tile the basic-block stream exactly, carry
 * the right memory addresses, classify mispredictions correctly, and
 * behave deterministically.
 */

#include <gtest/gtest.h>

#include <map>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "frontend/compile.hh"
#include "sim/bsa_source.hh"
#include "sim/interp.hh"
#include "support/rng.hh"
#include "workloads/synth.hh"

using namespace bsisa;

namespace
{

const char *kBranchy = R"(
    var d[32];
    fn leaf(x) { if (x & 1) { return x * 3; } return x + 1; }
    fn main() {
        var acc = 0;
        for (var i = 0; i < 200; i = i + 1) {
            if (d[i & 31] < 4) { acc = acc + leaf(i); }
            else { acc = acc * 2 + 1; }
            switch (acc & 3) {
                case 0: { acc = acc + 1; }
                case 1: { acc = acc ^ 9; }
                case 2: { acc = acc - 1; }
                case 3: { acc = acc + d[acc & 31]; }
            }
            acc = acc & 0xffff;
        }
        return acc;
    }
)";

struct TestRig
{
    Module module;
    BsaModule bsa;
    DecodedProgram decoded;
    ExecTrace trace;

    explicit TestRig(const char *source, std::uint64_t data_seed = 5)
        : module(compileBlockCOrDie(source))
    {
        Rng rng(data_seed);
        for (auto &word : module.data)
            word = rng.nextBelow(8);
        bsa = enlargeModule(module, EnlargeConfig{});
        layoutBsaModule(bsa);
        decoded = DecodedProgram::forBsa(bsa);
        trace = captureTrace(module, Interp::Limits{});
    }
};

} // namespace

TEST(BsaSource, TilesTheBasicBlockStreamExactly)
{
    TestRig setup(kBranchy);
    Interp::Limits limits;

    // Ground truth: the committed basic-block sequence.
    std::vector<std::pair<FuncId, BlockId>> bbs;
    {
        Interp interp(setup.module, limits);
        BlockEvent ev;
        while (interp.step(ev))
            bbs.emplace_back(ev.func, ev.block);
    }

    MachineConfig machine;
    BsaFetchSource source(setup.bsa, machine, setup.trace,
                          setup.decoded);
    TimingUnit unit;
    std::size_t cursor = 0;
    std::uint64_t total_ops = 0;
    while (source.next(unit)) {
        // Identify the committed block by address.
        const AtomicBlock *blk = nullptr;
        for (const auto &b : setup.bsa.blocks)
            if (b.addr == unit.pc)
                blk = &b;
        ASSERT_NE(blk, nullptr);
        // Its constituent bbs must match the stream at the cursor.
        for (BlockId bb : blk->bbs) {
            ASSERT_LT(cursor, bbs.size());
            EXPECT_EQ(bbs[cursor].first, blk->func);
            EXPECT_EQ(bbs[cursor].second, bb);
            ++cursor;
        }
        total_ops += unit.opCount;
    }
    EXPECT_EQ(cursor, bbs.size());  // no gaps, no overlap
    EXPECT_GT(total_ops, 0u);
}

TEST(BsaSource, MemAddrsMatchFunctionalExecution)
{
    TestRig setup(kBranchy);
    Interp::Limits limits;

    std::vector<std::uint64_t> want;
    {
        Interp interp(setup.module, limits);
        BlockEvent ev;
        while (interp.step(ev))
            want.insert(want.end(), ev.memAddrs,
                        ev.memAddrs + ev.memCount);
    }

    MachineConfig machine;
    BsaFetchSource source(setup.bsa, machine, setup.trace,
                          setup.decoded);
    TimingUnit unit;
    std::vector<std::uint64_t> got;
    while (source.next(unit))
        got.insert(got.end(), unit.memAddrs,
                   unit.memAddrs + unit.memCount);
    EXPECT_EQ(got, want);
}

TEST(BsaSource, PerfectPredictionNeverMispredicts)
{
    TestRig setup(kBranchy);
    MachineConfig machine;
    machine.perfectPrediction = true;
    BsaFetchSource source(setup.bsa, machine, setup.trace,
                          setup.decoded);
    TimingUnit unit;
    while (source.next(unit))
        EXPECT_FALSE(unit.redirect.mispredicted);
    EXPECT_EQ(source.mispredicts(), 0u);
}

TEST(BsaSource, RealPredictorMispredictsAndClassifies)
{
    TestRig setup(kBranchy);
    MachineConfig machine;
    BsaFetchSource source(setup.bsa, machine, setup.trace,
                          setup.decoded);
    TimingUnit unit;
    std::uint64_t fault_units = 0, trap_units = 0;
    while (source.next(unit)) {
        if (!unit.redirect.mispredicted)
            continue;
        if (unit.redirect.isFault) {
            ++fault_units;
            // Fault-style: the resolving op lives in the wrong block
            // and really is a fault operation.
            ASSERT_TRUE(unit.redirect.resolveInWrongBlock);
            ASSERT_NE(unit.redirect.wrongOps, nullptr);
            ASSERT_LT(unit.redirect.resolveOpIdx,
                      unit.redirect.wrongOpCount);
            EXPECT_NE(
                unit.redirect.wrongOps[unit.redirect.resolveOpIdx]
                        .flags &
                    opIsFault,
                0);
        } else {
            ++trap_units;
        }
    }
    EXPECT_EQ(source.mispredicts(),
              source.trapMispredicts() + source.faultMispredicts());
    EXPECT_GT(trap_units, 0u);
    EXPECT_EQ(source.trapMispredicts(), trap_units);
    EXPECT_EQ(source.faultMispredicts(), fault_units);
    const double acc =
        1.0 - double(source.mispredicts()) / double(source.predictions());
    EXPECT_GT(acc, 0.5);
    EXPECT_LT(acc, 1.0);
}

TEST(BsaSource, DeterministicStream)
{
    TestRig setup(kBranchy);
    MachineConfig machine;
    for (int round = 0; round < 2; ++round) {
        static std::vector<std::uint64_t> first;
        BsaFetchSource source(setup.bsa, machine, setup.trace,
                              setup.decoded);
        TimingUnit unit;
        std::vector<std::uint64_t> pcs;
        while (source.next(unit))
            pcs.push_back(unit.pc);
        if (round == 0)
            first = pcs;
        else
            EXPECT_EQ(first, pcs);
    }
}

TEST(BsaSource, OpBudgetTruncationIsClean)
{
    WorkloadParams params;
    params.name = "trunc";
    params.seed = 11;
    params.numFuncs = 6;
    params.numLibFuncs = 1;
    params.itemsPerFunc = 6;
    const Module m = generateWorkload(params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{});
    layoutBsaModule(bsa);
    const DecodedProgram decoded = DecodedProgram::forBsa(bsa);

    for (std::uint64_t budget : {1000u, 5000u, 50000u}) {
        MachineConfig machine;
        Interp::Limits limits;
        limits.maxOps = budget;
        const ExecTrace trace = captureTrace(m, limits);
        BsaFetchSource source(bsa, machine, trace, decoded);
        TimingUnit unit;
        std::uint64_t units = 0;
        while (source.next(unit))
            ++units;
        EXPECT_GT(units, 0u);
    }
}

TEST(BsaSource, ShallowCommitsArePossibleButBounded)
{
    // With a real predictor some committed blocks may be shallower
    // than the maximal variant (a compatible prediction commits);
    // they must still tile the stream (checked above) and not
    // dominate it.
    TestRig setup(kBranchy);
    MachineConfig machine;

    auto run_avg = [&](bool perfect) {
        machine.perfectPrediction = perfect;
        BsaFetchSource source(setup.bsa, machine, setup.trace,
                              setup.decoded);
        TimingUnit unit;
        std::uint64_t units = 0, ops = 0;
        while (source.next(unit)) {
            ++units;
            ops += unit.opCount;
        }
        return double(ops) / double(units);
    };

    const double real_avg = run_avg(false);
    const double oracle_avg = run_avg(true);
    EXPECT_LE(real_avg, oracle_avg + 0.01);
    EXPECT_GT(real_avg, oracle_avg * 0.7);
}
