/**
 * @file
 * Tests for the out-of-order backend (sim/ooo): RAT checkpoint
 * round-trips under random squash points, LSQ forwarding and
 * partial-overlap classification, directed engine regressions on
 * synthetic fetch streams, the commit-order digest contract, and
 * determinism under BSISA_JOBS fanning.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/ooo/lsq.hh"
#include "sim/ooo/ooo.hh"
#include "sim/ooo/rat.hh"
#include "sim/trace.hh"
#include "sim_result_print.hh"
#include "support/parallel.hh"
#include "support/rng.hh"

using namespace bsisa;

namespace
{

/** Branchy, memory-heavy program exercising the whole backend. */
const char *kWorkload = R"(
    var d[64];
    var out[64];
    fn helper(x, i) {
        var t = x + i;
        if (d[i & 63] & 1) { t = t * 3 + 1; } else { t = t + 7; }
        if (d[(i + 7) & 63] < 8) { t = t ^ i; }
        out[i & 63] = t + d[(t + i) & 63];
        return t & 0xffff;
    }
    fn main() {
        var acc = 0;
        for (var i = 0; i < 300; i = i + 1) {
            acc = acc + helper(acc, i);
            acc = acc & 0xfffff;
        }
        return acc;
    }
)";

Module
workloadModule()
{
    Module m = compileBlockCOrDie(kWorkload);
    Rng rng(7);
    for (auto &word : m.data)
        word = rng.nextBelow(16);
    return m;
}

/** Fixed-stream fetch source for directed engine tests.  The decoded
 *  ops and address arrays live in the test and outlive the source. */
class VecSource : public FetchSource
{
  public:
    std::vector<TimingUnit> units;

    bool
    next(TimingUnit &unit) override
    {
        if (at >= units.size())
            return false;
        unit = units[at++];
        return true;
    }
    void rewind() { at = 0; }

    FetchWalkCounters counters() const override { return {}; }

  private:
    std::size_t at = 0;
};

DecodedOp
aluOp(std::uint8_t src1, std::uint8_t src2, std::uint8_t dst)
{
    DecodedOp op;
    op.src1 = src1;
    op.src2 = src2;
    op.dst = dst;
    op.srcCount = 2;
    op.latency = 1;
    return op;
}

DecodedOp
loadOp(std::uint8_t addrReg, std::uint8_t dst)
{
    DecodedOp op;
    op.src1 = addrReg;
    op.dst = dst;
    op.srcCount = 1;
    op.latency = 2;
    op.flags = opIsMem | opIsLoad;
    return op;
}

DecodedOp
storeOp(std::uint8_t addrReg, std::uint8_t valReg)
{
    DecodedOp op;
    op.src1 = addrReg;
    op.src2 = valReg;
    op.srcCount = 2;
    op.latency = 1;
    op.flags = opIsMem;
    return op;
}

TimingUnit
unitOf(std::uint64_t pc, const std::vector<DecodedOp> &ops,
       const std::vector<std::uint64_t> &addrs)
{
    TimingUnit u;
    u.pc = pc;
    u.bytes = std::uint32_t(ops.size()) * 8;
    u.ops = ops.data();
    u.opCount = std::uint32_t(ops.size());
    u.memAddrs = addrs.data();
    u.memCount = std::uint32_t(addrs.size());
    return u;
}

} // namespace

// ------------------------------------------------------------- RAT

TEST(Rat, RenameEvictsAndReleaseRestoresCapacity)
{
    RegAliasTable rat(40);  // 7 spare registers
    const std::size_t spare = rat.freeCount();
    EXPECT_EQ(spare, 40u - RegAliasTable::mappedRegs);

    const std::uint16_t before = rat.lookup(5);
    const RegAliasTable::Alloc a = rat.rename(5, 10);
    EXPECT_EQ(a.prev, before);
    EXPECT_EQ(rat.lookup(5), a.phys);
    EXPECT_NE(a.phys, before);
    EXPECT_GE(a.ready, 10u);
    EXPECT_EQ(rat.freeCount(), spare - 1);

    rat.release(a.prev, 20);
    EXPECT_EQ(rat.freeCount(), spare);

    // The released register comes back with its availability stamp.
    std::uint16_t phys = 0;
    for (std::size_t i = 0; i < spare; ++i) {
        const RegAliasTable::Alloc b = rat.rename(6, 0);
        rat.release(b.prev, 0);
        phys = b.phys;
        if (phys == a.prev) {
            EXPECT_EQ(b.ready, 20u);
            return;
        }
    }
    FAIL() << "released register never reallocated";
}

TEST(Rat, CheckpointRestoreRoundTripUnderRandomSquashPoints)
{
    Rng rng(1234);
    RegAliasTable rat(96);
    const std::size_t spare = rat.freeCount();
    std::uint64_t cycle = 0;

    for (int round = 0; round < 200; ++round) {
        // Committed-path renames between checkpoints.
        const unsigned committed = rng.nextBelow(4);
        for (unsigned i = 0; i < committed; ++i) {
            const RegNum dst =
                RegNum(1 + rng.nextBelow(RegAliasTable::mappedRegs - 1));
            const RegAliasTable::Alloc a = rat.rename(dst, cycle);
            rat.release(a.prev, cycle + 3);
            ++cycle;
        }

        std::uint16_t snapshot[RegAliasTable::mappedRegs];
        for (unsigned r = 0; r < RegAliasTable::mappedRegs; ++r)
            snapshot[r] = rat.lookup(RegNum(r));
        const std::size_t freeBefore = rat.freeCount();

        const RegAliasTable::Checkpoint cp = rat.checkpoint();
        const unsigned wrong = 1 + rng.nextBelow(12);
        for (unsigned i = 0; i < wrong; ++i) {
            const RegNum dst =
                RegNum(1 + rng.nextBelow(RegAliasTable::mappedRegs - 1));
            rat.rename(dst, cycle + i);
        }
        const std::uint64_t squash = cycle + rng.nextBelow(20);
        rat.restore(cp, squash);

        for (unsigned r = 0; r < RegAliasTable::mappedRegs; ++r)
            EXPECT_EQ(rat.lookup(RegNum(r)), snapshot[r])
                << "round " << round << " register " << r;
        EXPECT_EQ(rat.freeCount(), freeBefore) << "round " << round;
    }
    EXPECT_EQ(rat.freeCount(), spare);
}

// ------------------------------------------------------------- LSQ

TEST(Lsq, ForwardsExactMatchFromYoungestStore)
{
    LoadStoreQueue lsq(8);
    lsq.pushStore(100, 5, 9);
    lsq.pushStore(100, 6, 17);  // younger store, same address

    const LoadStoreQueue::Conflict c = lsq.searchOlderStores(100);
    EXPECT_EQ(c.kind, LoadStoreQueue::ConflictKind::Forward);
    EXPECT_EQ(c.dataReady, 17u);  // youngest match wins
}

TEST(Lsq, PartialOverlapWaitsInsteadOfForwarding)
{
    LoadStoreQueue lsq(8);
    lsq.pushStore(100, 5, 9);

    // Offset inside the access width: intersecting byte ranges with
    // different base addresses must classify as Overlap, never
    // Forward (forwarding would splice bytes from two sources).
    for (const std::uint64_t addr : {96ull, 97ull, 99ull, 101ull,
                                     104ull, 107ull}) {
        const LoadStoreQueue::Conflict c = lsq.searchOlderStores(addr);
        EXPECT_EQ(c.kind, LoadStoreQueue::ConflictKind::Overlap)
            << "addr " << addr;
    }
    // One full access width away: disjoint.
    EXPECT_EQ(lsq.searchOlderStores(108).kind,
              LoadStoreQueue::ConflictKind::None);
    EXPECT_EQ(lsq.searchOlderStores(92).kind,
              LoadStoreQueue::ConflictKind::None);
}

TEST(Lsq, OlderStoreAddressesGateLoads)
{
    LoadStoreQueue lsq(8);
    EXPECT_EQ(lsq.olderStoreAddrReady(), 0u);
    lsq.pushStore(100, 12, 14);
    lsq.pushStore(200, 31, 33);
    EXPECT_EQ(lsq.olderStoreAddrReady(), 31u);
    lsq.pushLoad(300, 40);  // loads do not gate later loads
    EXPECT_EQ(lsq.olderStoreAddrReady(), 31u);
}

// ---------------------------------------------------- OoO engine

TEST(Ooo, ForwardingAndPartialOverlapOnSyntheticStream)
{
    // A store to addr 1000 with the load stream behind it in the same
    // unit, so the store is still in flight when the loads dispatch:
    // the load of 1000 forwards (exact match), the load of 1004 is a
    // partial overlap and must stall instead.
    const std::vector<DecodedOp> ops{aluOp(1, 2, 3), storeOp(3, 1),
                                     loadOp(3, 4), loadOp(3, 5)};
    const std::vector<std::uint64_t> addrs{1000, 1000, 1004};

    VecSource source;
    source.units.push_back(unitOf(0x1000, ops, addrs));

    MachineConfig machine;
    machine.timingModel = TimingModel::Ooo;
    OooTelemetry tel;
    const SimResult r = simulateOoO(source, machine, &tel);

    EXPECT_EQ(r.retiredOps, 4u);
    EXPECT_EQ(r.retiredUnits, 1u);
    EXPECT_EQ(tel.forwardedLoads, 1u);
    EXPECT_EQ(tel.overlapStallLoads, 1u);
    EXPECT_EQ(tel.youngerForwards, 0u);
    // The forwarded load bypasses the dcache: the store and the
    // overlap load access it, the forwarded load does not.
    EXPECT_EQ(r.dcache.accesses, 2u);
}

TEST(Ooo, ForwardedTimingBeatsMemoryReplayAndOverlapWaits)
{
    // The same unit three times, varying only the load address
    // relative to the in-flight store: exact match (forward),
    // disjoint (dcache access), partial overlap (wait for the store
    // to drain).  Forwarding must never be slower than going to
    // memory, and the overlap variant must be strictly slower than
    // the forwarded one.
    const std::vector<DecodedOp> ops{aluOp(1, 2, 3), storeOp(3, 1),
                                     loadOp(3, 4), aluOp(4, 4, 5)};

    auto cyclesWithLoadAt = [&](std::uint64_t addr) {
        const std::vector<std::uint64_t> addrs{1000, addr};
        VecSource source;
        source.units.push_back(unitOf(0x1000, ops, addrs));
        MachineConfig machine;
        machine.timingModel = TimingModel::Ooo;
        OooTelemetry tel;
        const SimResult r = simulateOoO(source, machine, &tel);
        return std::pair<std::uint64_t, OooTelemetry>(r.cycles, tel);
    };

    const auto forwarded = cyclesWithLoadAt(1000);
    const auto disjoint = cyclesWithLoadAt(5000);
    const auto overlap = cyclesWithLoadAt(1004);
    EXPECT_EQ(forwarded.second.forwardedLoads, 1u);
    EXPECT_EQ(disjoint.second.forwardedLoads, 0u);
    EXPECT_EQ(overlap.second.overlapStallLoads, 1u);
    EXPECT_LE(forwarded.first, disjoint.first);
    EXPECT_GT(overlap.first, forwarded.first);
}

TEST(Ooo, RenameStarvationReclaimsInProgramOrder)
{
    // One unit with far more renames than spare physical registers
    // (40 regs leave 7 spare): the engine must reclaim this unit's
    // own older evictions instead of underflowing the free list.
    std::vector<DecodedOp> ops;
    for (int i = 0; i < 48; ++i)
        ops.push_back(aluOp(1, 2, std::uint8_t(1 + (i % 30))));
    const std::vector<std::uint64_t> noAddrs;

    VecSource source;
    source.units.push_back(unitOf(0x1000, ops, noAddrs));
    source.units.push_back(unitOf(0x2000, ops, noAddrs));

    MachineConfig machine;
    machine.timingModel = TimingModel::Ooo;
    machine.ooo.physRegs = 40;
    OooTelemetry tel;
    const SimResult r = simulateOoO(source, machine, &tel);
    EXPECT_EQ(r.retiredOps, 96u);
    EXPECT_EQ(tel.robOverflows, 0u);
    EXPECT_EQ(tel.commitOrderViolations, 0u);
}

TEST(Ooo, CommitDigestMatchesEmitStreamAcrossMachines)
{
    const Module module = workloadModule();
    Interp::Limits limits;
    limits.maxOps = 1u << 22;
    const ExecTrace trace = captureTrace(module, limits);

    MachineConfig machine;
    machine.timingModel = TimingModel::Ooo;

    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    OooTelemetry tel;
    {
        ConvFetchSource source(module, layout, machine, trace, decoded);
        const SimResult r = simulateOoO(source, machine, &tel);
        EXPECT_EQ(r.retiredOps, trace.dynOps);
        EXPECT_EQ(r.retiredUnits, trace.eventCount);
        EXPECT_LE(tel.peakRobOps, machine.ooo.robOps);
        EXPECT_LE(tel.peakLsq, machine.ooo.lsqEntries);
        EXPECT_EQ(tel.robOverflows, 0u);
        EXPECT_EQ(tel.commitOrderViolations, 0u);
        EXPECT_EQ(tel.youngerForwards, 0u);
    }
    {
        // The ROB drains units many next() calls after their emit, so
        // digest equality proves the backend retained every span it
        // needed rather than reading freed memory.
        ConvFetchSource reference(module, layout, machine, trace,
                                  decoded);
        EXPECT_EQ(tel.commitDigest, fetchStreamDigest(reference));
    }

    const BsaModule bsa = enlargeModule(module, EnlargeConfig{});
    const DecodedProgram bsaDecoded = DecodedProgram::forBsa(bsa);
    OooTelemetry btel;
    {
        BsaFetchSource source(bsa, machine, trace, bsaDecoded);
        simulateOoO(source, machine, &btel);
    }
    {
        BsaFetchSource reference(bsa, machine, trace, bsaDecoded);
        EXPECT_EQ(btel.commitDigest, fetchStreamDigest(reference));
    }
}

TEST(Ooo, DeterministicAcrossRerunsAndJobsFanning)
{
    const Module module = workloadModule();
    Interp::Limits limits;
    limits.maxOps = 1u << 22;
    const ExecTrace trace = captureTrace(module, limits);
    const BsaModule bsa = enlargeModule(module, EnlargeConfig{});

    std::vector<MachineConfig> grid;
    for (const unsigned rob : {64u, 192u}) {
        for (const unsigned lsqE : {8u, 48u}) {
            MachineConfig m;
            m.timingModel = TimingModel::Ooo;
            m.ooo.robOps = rob;
            m.ooo.lsqEntries = lsqE;
            grid.push_back(m);
        }
    }

    auto runGrid = [&](const char *jobs) {
        setenv("BSISA_JOBS", jobs, 1);
        std::vector<SimResult> out(grid.size() * 2);
        parallelFor(grid.size() * 2, [&](std::size_t i) {
            const MachineConfig &m = grid[i / 2];
            out[i] = (i & 1) ? runBlockStructured(bsa, m, trace)
                             : runConventional(module, m, trace);
        });
        return out;
    };
    const char *oldJobs = getenv("BSISA_JOBS");
    const std::string saved = oldJobs ? oldJobs : "";
    const std::vector<SimResult> serial = runGrid("1");
    const std::vector<SimResult> fanned = runGrid("3");
    const std::vector<SimResult> again = runGrid("3");
    if (oldJobs)
        setenv("BSISA_JOBS", saved.c_str(), 1);
    else
        unsetenv("BSISA_JOBS");

    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], fanned[i]) << "point " << i;
        EXPECT_EQ(serial[i], again[i]) << "point " << i;
    }
}

TEST(Ooo, MixedModelBatchMatchesPerConfigRuns)
{
    const Module module = workloadModule();
    Interp::Limits limits;
    limits.maxOps = 1u << 22;
    const ExecTrace trace = captureTrace(module, limits);

    std::vector<MachineConfig> mixed(4);
    mixed[1].timingModel = TimingModel::Ooo;
    mixed[2].issueWidth = 8;
    mixed[3].timingModel = TimingModel::Ooo;
    mixed[3].ooo.robOps = 64;

    std::vector<SimResult> seq(mixed.size());
    for (std::size_t i = 0; i < mixed.size(); ++i)
        seq[i] = runConventional(module, mixed[i], trace);
    const std::vector<SimResult> batch =
        runConventionalBatch(module, mixed, trace);
    ASSERT_EQ(batch.size(), mixed.size());
    for (std::size_t i = 0; i < mixed.size(); ++i)
        EXPECT_EQ(seq[i], batch[i]) << "lane " << i;

    // The backend must actually reorder: same committed stream, a
    // different cycle count than the abstract window model.
    EXPECT_EQ(seq[0].retiredOps, seq[1].retiredOps);
    EXPECT_NE(seq[0].cycles, seq[1].cycles);
}
