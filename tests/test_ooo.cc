/**
 * @file
 * Tests for the out-of-order backend (sim/ooo): RAT checkpoint
 * round-trips under random squash points, the reservation-station
 * calendar and the LSQ's store indices against brute-force scans, LSQ
 * forwarding and partial-overlap classification, directed engine
 * regressions on synthetic fetch streams, the commit-order digest
 * contract, determinism under BSISA_JOBS fanning, and every suite
 * benchmark's results pinned at three geometries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <sstream>
#include <string>
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
#include "sim/ooo/rs.hh"
#include "sim/trace.hh"
#include "sim_result_print.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "workloads/specmix.hh"
#include "workloads/synth.hh"

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

TEST(Lsq, StoreIndicesMatchBruteForceAcrossRingWraps)
{
    // A mirror of the queue, scanned in full for every answer.
    struct Ref
    {
        std::uint64_t addr, addrReady, dataReady, commit, seq;
        bool isStore;
    };
    auto bruteGate = [](const std::deque<Ref> &q) {
        std::uint64_t gate = 0;
        for (const Ref &e : q)
            if (e.isStore)
                gate = std::max(gate, e.addrReady);
        return gate;
    };
    auto bruteSearch = [](const std::deque<Ref> &q, std::uint64_t addr) {
        LoadStoreQueue::Conflict c;
        for (auto it = q.rbegin(); it != q.rend(); ++it) {
            const std::uint64_t d =
                it->addr > addr ? it->addr - addr : addr - it->addr;
            if (!it->isStore || d >= LoadStoreQueue::accessBytes)
                continue;
            c.storeSeq = it->seq;
            if (it->addr == addr) {
                c.kind = LoadStoreQueue::ConflictKind::Forward;
                c.dataReady = it->dataReady;
            } else {
                c.kind = LoadStoreQueue::ConflictKind::Overlap;
                c.drain = it->commit != LoadStoreQueue::commitPending
                              ? it->commit
                              : it->dataReady;
            }
            break;
        }
        return c;
    };

    Rng rng(2024);
    for (const unsigned cap : {1u, 4u, 7u}) {
        LoadStoreQueue lsq(cap);
        std::deque<Ref> ref;
        std::uint64_t seq = 0, unitBase = 0, commit = 0;
        std::uint64_t pushes = 0;
        for (int step = 0; step < 20000; ++step) {
            SCOPED_TRACE("cap " + std::to_string(cap) + " step " +
                         std::to_string(step));
            const unsigned op = unsigned(rng.nextBelow(10));
            if (op < 5 && !lsq.full()) {
                // Addresses on a 4-byte grid: exact matches, partial
                // overlaps and disjoint pairs all occur.
                const std::uint64_t addr = 1000 + 4 * rng.nextBelow(6);
                const std::uint64_t ready = rng.nextBelow(200);
                const bool isStore = rng.nextBelow(2);
                const std::uint64_t data = ready + rng.nextBelow(3);
                const std::uint64_t got =
                    isStore ? lsq.pushStore(addr, ready, data)
                            : lsq.pushLoad(addr, ready);
                ASSERT_EQ(got, seq);
                ref.push_back({addr, ready, isStore ? data : ready,
                               LoadStoreQueue::commitPending, seq++,
                               isStore});
                ++pushes;
            } else if (op < 7) {
                // The unit being scheduled commits.
                commit += rng.nextBelow(4);
                lsq.stampCommit(unitBase, commit);
                for (Ref &e : ref)
                    if (e.seq >= unitBase)
                        e.commit = commit;
                unitBase = seq;
            } else if (op < 9) {
                const std::uint64_t cycle =
                    commit >= 3 ? commit - 3 + rng.nextBelow(5) : 0;
                lsq.drainCommitted(cycle);
                while (!ref.empty() &&
                       ref.front().commit !=
                           LoadStoreQueue::commitPending &&
                       ref.front().commit <= cycle)
                    ref.pop_front();
            } else if (!ref.empty()) {
                lsq.popOldest();
                ref.pop_front();
            }

            ASSERT_EQ(lsq.size(), ref.size());
            if (!ref.empty()) {
                ASSERT_EQ(lsq.oldestCommit(), ref.front().commit);
            }
            ASSERT_EQ(lsq.olderStoreAddrReady(), bruteGate(ref));
            for (std::uint64_t addr = 992; addr <= 1032; addr += 2) {
                const LoadStoreQueue::Conflict got =
                    lsq.searchOlderStores(addr);
                const LoadStoreQueue::Conflict want =
                    bruteSearch(ref, addr);
                ASSERT_EQ(got.kind, want.kind) << "addr " << addr;
                ASSERT_EQ(got.dataReady, want.dataReady);
                ASSERT_EQ(got.drain, want.drain);
                ASSERT_EQ(got.storeSeq, want.storeSeq);
            }
        }
        // The ring (cap + 1 slots) wrapped many times over.
        EXPECT_GT(pushes, 100u * (cap + 1));
    }
}

// ---------------------------------------------- reservation stations

TEST(Rs, EarliestFreeMatchesLinearArgminOverRandomTakes)
{
    Rng rng(99);
    for (const unsigned entries :
         {1u, 2u, 3u, 5u, 24u, 64u, 512u, 4096u}) {
        ReservationStations rs(entries);
        std::vector<std::uint64_t> ref(entries, 0);
        std::uint64_t now = 0;
        std::uint64_t lastEarliest = 0;
        for (int step = 0; step < 30000; ++step) {
            // The linear scan the engine used to run per op.
            const auto best = std::min_element(ref.begin(), ref.end());
            ASSERT_EQ(rs.earliestFree(), *best)
                << entries << " stations, step " << step;
            ASSERT_GE(rs.earliestFree(), lastEarliest)
                << entries << " stations, step " << step;
            lastEarliest = rs.earliestFree();
            // As in the engine: an op dispatches no earlier than the
            // front end, which moves about a cycle per op, and holds
            // its station until it issues — mostly at once (ties are
            // common), sometimes hundreds of cycles later, and now
            // and then thousands, past the calendar ring's span.
            now += rng.nextBelow(3);
            const std::uint64_t dispatch = std::max(*best, now);
            const unsigned pick = rng.nextBelow(64);
            const std::uint64_t until =
                dispatch + (pick == 0   ? 2000 + rng.nextBelow(20000)
                            : pick < 8 ? rng.nextBelow(500)
                                       : rng.nextBelow(4));
            rs.occupyEarliest(until);
            *best = until;
        }
        // The earliest cycle went round the ring several times.
        EXPECT_GT(rs.earliestFree(), 20000u) << entries << " stations";
    }
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

TEST(Ooo, EveryCommitWidthPastTheUnitCommitsItInOneCycle)
{
    // A width at least the unit's op count commits the unit in one
    // cycle, up to the widest width commit_width accepts: the commit
    // span is computed in 64 bits, so opCount + width - 1 cannot wrap
    // to a zero-cycle span.
    std::vector<DecodedOp> ops;
    for (int i = 0; i < 16; ++i)
        ops.push_back(aluOp(1, 2, std::uint8_t(1 + (i % 30))));
    const std::vector<std::uint64_t> noAddrs;
    VecSource source;
    for (std::uint64_t pc : {0x1000, 0x2000, 0x3000})
        source.units.push_back(unitOf(pc, ops, noAddrs));

    auto cyclesAt = [&](unsigned width) {
        source.rewind();
        MachineConfig machine;
        machine.timingModel = TimingModel::Ooo;
        machine.ooo.commitWidth = width;
        OooTelemetry tel;
        const SimResult r = simulateOoO(source, machine, &tel);
        EXPECT_EQ(tel.commitOrderViolations, 0u) << "width " << width;
        return r.cycles;
    };
    const std::uint64_t oneCycle = cyclesAt(16);
    EXPECT_LT(oneCycle, cyclesAt(8));
    for (const unsigned width : {64u, 4000000000u, 4294967295u})
        EXPECT_EQ(cyclesAt(width), oneCycle) << "width " << width;
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

// ------------------------------------------- pinned suite outputs

namespace
{

/** One pinned row: an OoO run's cycles, stall counters, wrong-path
 *  ops and every OooTelemetry field. */
struct PinnedOoo
{
    const char *machine;
    const char *bench;
    const char *geometry;
    std::uint64_t cycles;
    std::uint64_t stallRedirect;
    std::uint64_t stallWindow;
    std::uint64_t stallIcache;
    std::uint64_t wrongPathOps;
    // OooTelemetry, in declaration order.
    std::uint64_t commitDigest;
    std::uint64_t forwardedLoads;
    std::uint64_t overlapStallLoads;
    std::uint64_t checkpointsTaken;
    std::uint64_t checkpointsRestored;
    std::uint64_t renameStallCycles;
    std::uint64_t peakRobOps;
    std::uint64_t peakRobUnits;
    std::uint64_t peakLsq;
    std::uint64_t robOverflows;
    std::uint64_t commitOrderViolations;
    std::uint64_t youngerForwards;
};

static_assert(sizeof(OooTelemetry) == 12 * sizeof(std::uint64_t),
              "a new OooTelemetry field needs a column in kPinnedOoo");

/** A row as its initializer in kPinnedOoo, so a mismatch prints the
 *  line to paste. */
std::string
pinnedRowText(const PinnedOoo &r)
{
    std::ostringstream os;
    os << "{\"" << r.machine << "\", \"" << r.bench << "\", \""
       << r.geometry << "\",\n     " << r.cycles << ", "
       << r.stallRedirect << ", " << r.stallWindow << ", "
       << r.stallIcache << ", " << r.wrongPathOps << ",\n     "
       << r.commitDigest << "ull, " << r.forwardedLoads << ", "
       << r.overlapStallLoads << ", " << r.checkpointsTaken << ", "
       << r.checkpointsRestored << ", " << r.renameStallCycles
       << ",\n     " << r.peakRobOps << ", " << r.peakRobUnits << ", "
       << r.peakLsq << ", " << r.robOverflows << ", "
       << r.commitOrderViolations << ", " << r.youngerForwards << "},";
    return os.str();
}

/**
 * Expected OoO results of every suite benchmark on both machines at
 * 1/2000 of its Table-2 budget, under three geometries: the default;
 * a tiny one (2 stations per class, 4 LSQ entries, 40 physical
 * registers, a 16-op ROB committing 2 per cycle) that reaches the
 * LSQ's capacity reclaim and rename starvation; and a deep "ladder"
 * rung (ROB, stations and LSQ of 512, 600 physical registers) whose
 * stations and queues rarely fill.  Any change to the engine's
 * structures must reproduce every row bit for bit.
 */
const PinnedOoo kPinnedOoo[] = {
    {"conv", "compress", "default",
     19635, 8934, 3781, 174, 1738,
     3719380931163717079ull, 2777, 0, 332, 332, 6528,
     192, 28, 30, 0, 0, 0},
    {"conv", "compress", "tiny",
     92743, 5506, 80398, 174, 1025,
     3719380931163717079ull, 479, 0, 332, 332, 12961,
     16, 5, 3, 0, 0, 0},
    {"conv", "compress", "ladder",
     15347, 3009, 5429, 174, 1432,
     3719380931163717079ull, 3717, 0, 332, 332, 136,
     512, 75, 79, 0, 0, 0},
    {"bsa", "compress", "default",
     18345, 5250, 7188, 378, 697,
     16078470328008759298ull, 3008, 0, 102, 102, 9066,
     192, 23, 30, 0, 0, 0},
    {"bsa", "compress", "tiny",
     93347, 3005, 84518, 378, 360,
     16078470328008759298ull, 479, 0, 102, 102, 3433,
     16, 6, 3, 0, 0, 0},
    {"bsa", "compress", "ladder",
     14198, 1644, 6657, 378, 635,
     16078470328008759298ull, 3878, 0, 102, 102, 0,
     512, 60, 79, 0, 0, 0},
    {"conv", "gcc", "default",
     40052, 19994, 3394, 3354, 8139,
     16266610886918237482ull, 566, 0, 1888, 1888, 3165,
     192, 37, 33, 0, 0, 0},
    {"conv", "gcc", "tiny",
     124450, 29744, 78080, 3354, 4086,
     16266610886918237482ull, 82, 0, 1888, 1888, 29370,
     16, 7, 4, 0, 0, 0},
    {"conv", "gcc", "ladder",
     38189, 20581, 921, 3354, 8096,
     16266610886918237482ull, 706, 0, 1888, 1888, 0,
     512, 96, 55, 0, 0, 0},
    {"bsa", "gcc", "default",
     39317, 20553, 4026, 7104, 4513,
     14276910917922446796ull, 538, 0, 619, 619, 1352,
     192, 26, 48, 0, 0, 0},
    {"bsa", "gcc", "tiny",
     132956, 30022, 88232, 7104, 2261,
     14276910917922446796ull, 71, 0, 619, 619, 4286,
     16, 4, 4, 0, 0, 0},
    {"bsa", "gcc", "ladder",
     36287, 19532, 1939, 7104, 4416,
     14276910917922446796ull, 768, 0, 619, 619, 0,
     512, 61, 56, 0, 0, 0},
    {"conv", "go", "default",
     36539, 20506, 1253, 3942, 9261,
     7848318737998112393ull, 634, 0, 2024, 2024, 1386,
     192, 42, 32, 0, 0, 0},
    {"conv", "go", "tiny",
     104821, 31050, 59019, 3942, 4528,
     7848318737998112393ull, 76, 0, 2024, 2024, 24017,
     16, 8, 4, 0, 0, 0},
    {"conv", "go", "ladder",
     35143, 20036, 327, 3942, 9214,
     7848318737998112393ull, 748, 0, 2024, 2024, 0,
     512, 99, 54, 0, 0, 0},
    {"bsa", "go", "default",
     37219, 19660, 2150, 8622, 4102,
     4867519734519188257ull, 673, 0, 514, 514, 741,
     192, 30, 48, 0, 0, 0},
    {"bsa", "go", "tiny",
     110904, 31027, 64502, 8622, 1907,
     4867519734519188257ull, 72, 0, 514, 514, 8521,
     16, 4, 4, 0, 0, 0},
    {"bsa", "go", "ladder",
     34752, 17671, 1582, 8622, 4059,
     4867519734519188257ull, 841, 0, 514, 514, 0,
     512, 77, 98, 0, 0, 0},
    {"conv", "ijpeg", "default",
     41425, 5695, 22580, 300, 1843,
     16921275960548170340ull, 3118, 0, 317, 317, 11012,
     192, 31, 48, 0, 0, 0},
    {"conv", "ijpeg", "tiny",
     160971, 4563, 143284, 300, 840,
     16921275960548170340ull, 154, 0, 317, 317, 10644,
     16, 5, 4, 0, 0, 0},
    {"conv", "ijpeg", "ladder",
     38838, 5193, 20473, 300, 1755,
     16921275960548170340ull, 5814, 0, 317, 317, 0,
     512, 71, 164, 0, 0, 0},
    {"bsa", "ijpeg", "default",
     41955, 9470, 21563, 756, 2637,
     4281608987414829635ull, 3192, 0, 274, 274, 4160,
     192, 27, 48, 0, 0, 0},
    {"bsa", "ijpeg", "tiny",
     161167, 6510, 143764, 756, 962,
     4281608987414829635ull, 155, 0, 274, 274, 3951,
     16, 4, 4, 0, 0, 0},
    {"bsa", "ijpeg", "ladder",
     38923, 6125, 21870, 756, 2408,
     4281608987414829635ull, 6027, 0, 274, 274, 0,
     512, 67, 164, 0, 0, 0},
    {"conv", "li", "default",
     43386, 23092, 1889, 294, 6809,
     15730470159098666733ull, 835, 0, 1581, 1581, 3627,
     192, 56, 24, 0, 0, 0},
    {"conv", "li", "tiny",
     148455, 21950, 108093, 294, 3733,
     15730470159098666733ull, 0, 0, 1581, 1581, 32001,
     16, 8, 2, 0, 0, 0},
    {"conv", "li", "ladder",
     39464, 19754, 1305, 294, 6473,
     15730470159098666733ull, 860, 0, 1581, 1581, 0,
     512, 101, 55, 0, 0, 0},
    {"bsa", "li", "default",
     38921, 23891, 3256, 720, 8876,
     13010969483884524022ull, 811, 0, 1204, 1204, 9615,
     192, 28, 24, 0, 0, 0},
    {"bsa", "li", "tiny",
     156244, 24396, 120088, 720, 4347,
     13010969483884524022ull, 8, 0, 1204, 1204, 16464,
     16, 4, 2, 0, 0, 0},
    {"bsa", "li", "ladder",
     33318, 19538, 1995, 720, 8953,
     13010969483884524022ull, 878, 0, 1204, 1204, 0,
     512, 70, 55, 0, 0, 0},
    {"conv", "m88ksim", "default",
     19277, 5186, 4802, 204, 1179,
     17025224661552522716ull, 52, 0, 271, 271, 20354,
     192, 33, 23, 0, 0, 0},
    {"conv", "m88ksim", "tiny",
     96303, 3491, 83540, 204, 595,
     17025224661552522716ull, 0, 0, 271, 271, 10318,
     16, 4, 2, 0, 0, 0},
    {"conv", "m88ksim", "ladder",
     12708, 2142, 1247, 204, 899,
     17025224661552522716ull, 57, 0, 271, 271, 0,
     511, 90, 54, 0, 0, 0},
    {"bsa", "m88ksim", "default",
     19319, 7939, 3633, 594, 2043,
     14423744807142896427ull, 16, 0, 194, 194, 15769,
     192, 27, 23, 0, 0, 0},
    {"bsa", "m88ksim", "tiny",
     98869, 5163, 85979, 594, 1159,
     14423744807142896427ull, 0, 0, 194, 194, 1050,
     16, 4, 2, 0, 0, 0},
    {"bsa", "m88ksim", "ladder",
     12249, 2620, 1863, 594, 2042,
     14423744807142896427ull, 59, 0, 194, 194, 0,
     512, 67, 56, 0, 0, 0},
    {"conv", "perl", "default",
     17744, 6292, 4442, 600, 1897,
     2471884882833797344ull, 428, 0, 483, 483, 7562,
     192, 38, 22, 0, 0, 0},
    {"conv", "perl", "tiny",
     62352, 7942, 47396, 600, 1100,
     2471884882833797344ull, 5, 0, 483, 483, 14831,
     16, 6, 3, 0, 0, 0},
    {"conv", "perl", "ladder",
     17066, 6005, 4051, 600, 1990,
     2471884882833797344ull, 464, 0, 483, 483, 0,
     512, 90, 49, 0, 0, 0},
    {"bsa", "perl", "default",
     16956, 6106, 5253, 1326, 1277,
     4381646525416506178ull, 431, 0, 141, 141, 6932,
     192, 29, 21, 0, 0, 0},
    {"bsa", "perl", "tiny",
     65622, 6610, 53411, 1326, 720,
     4381646525416506178ull, 6, 0, 141, 141, 4456,
     16, 4, 3, 0, 0, 0},
    {"bsa", "perl", "ladder",
     15910, 5172, 5140, 1326, 1279,
     4381646525416506178ull, 494, 0, 141, 141, 0,
     512, 66, 50, 0, 0, 0},
    {"conv", "vortex", "default",
     41517, 16479, 4088, 882, 5834,
     5785220490948570187ull, 1052, 0, 1246, 1246, 9911,
     192, 41, 24, 0, 0, 0},
    {"conv", "vortex", "tiny",
     181190, 19765, 140494, 882, 3119,
     5785220490948570187ull, 7, 0, 1246, 1246, 44878,
     16, 8, 3, 0, 0, 0},
    {"conv", "vortex", "ladder",
     35291, 13194, 1080, 882, 5333,
     5785220490948570187ull, 1182, 0, 1246, 1246, 0,
     512, 105, 50, 0, 0, 0},
    {"bsa", "vortex", "default",
     39309, 19837, 4034, 2112, 5730,
     3242355815951977379ull, 1077, 0, 734, 734, 4059,
     192, 33, 24, 0, 0, 0},
    {"bsa", "vortex", "tiny",
     190388, 20802, 154170, 2112, 2941,
     3242355815951977379ull, 7, 0, 734, 734, 15243,
     16, 4, 3, 0, 0, 0},
    {"bsa", "vortex", "ladder",
     31548, 12879, 3139, 2112, 5379,
     3242355815951977379ull, 1255, 0, 734, 734, 127,
     512, 88, 53, 0, 0, 0},
};

/**
 * Call @p body(bench, machine name, geometry name, trace, simulate)
 * for every suite benchmark at a 1/2000 budget on both machines at
 * the default, a tiny and the 512-entry "ladder" geometry.
 * simulate(OooTelemetry *) runs simulateOoO on a fresh fetch source
 * each call.
 */
template <typename Body>
void
forEachSuiteRun(Body &&body)
{
    MachineConfig base;
    base.timingModel = TimingModel::Ooo;
    MachineConfig tiny = base;
    tiny.ooo.rsPerClass = 2;
    tiny.ooo.lsqEntries = 4;
    tiny.ooo.physRegs = 40;
    tiny.ooo.robOps = 16;
    tiny.ooo.commitWidth = 2;
    MachineConfig ladder = base;
    ladder.ooo.robOps = 512;
    ladder.ooo.rsPerClass = 512;
    ladder.ooo.lsqEntries = 512;
    ladder.ooo.physRegs = 600;
    const std::pair<const char *, MachineConfig> geometries[] = {
        {"default", base}, {"tiny", tiny}, {"ladder", ladder}};

    for (const SpecBenchmark &bench : specint95Suite()) {
        const Module module = generateWorkload(bench.params);
        Interp::Limits limits;
        limits.maxOps = bench.scaledBudget(2000);
        const ExecTrace trace = captureTrace(module, limits);
        const ConvLayout layout(module);
        const DecodedProgram convDecoded =
            DecodedProgram::forModule(module);
        BsaModule bsa = enlargeModule(module, EnlargeConfig{});
        layoutBsaModule(bsa);
        const DecodedProgram bsaDecoded = DecodedProgram::forBsa(bsa);

        for (const char *machineName : {"conv", "bsa"}) {
            for (const auto &[geometry, machine] : geometries) {
                const bool conv = machineName == std::string("conv");
                auto simulate = [&](OooTelemetry *t) {
                    if (conv) {
                        ConvFetchSource source(module, layout, machine,
                                               trace, convDecoded);
                        return simulateOoO(source, machine, t);
                    }
                    BsaFetchSource source(bsa, machine, trace,
                                          bsaDecoded);
                    return simulateOoO(source, machine, t);
                };
                body(bench, machineName, geometry, trace, simulate);
            }
        }
    }
}

} // namespace

TEST(Ooo, PinnedAcrossSuiteAndGeometries)
{
    std::size_t row = 0;
    forEachSuiteRun([&](const SpecBenchmark &bench,
                        const char *machineName, const char *geometry,
                        const ExecTrace &trace, auto simulate) {
        OooTelemetry t;
        const SimResult r = simulate(&t);
        if (machineName == std::string("conv")) {
            EXPECT_EQ(r.retiredOps, trace.dynOps);
        }
        const PinnedOoo got{
            machineName, bench.params.name.c_str(), geometry,
            r.cycles, r.stallRedirect, r.stallWindow,
            r.stallIcache, r.wrongPathOps, t.commitDigest,
            t.forwardedLoads, t.overlapStallLoads,
            t.checkpointsTaken, t.checkpointsRestored,
            t.renameStallCycles, t.peakRobOps, t.peakRobUnits,
            t.peakLsq, t.robOverflows,
            t.commitOrderViolations, t.youngerForwards};
        if (row < std::size(kPinnedOoo))
            EXPECT_EQ(pinnedRowText(got),
                      pinnedRowText(kPinnedOoo[row]));
        else
            ADD_FAILURE() << "unpinned row:\n" << pinnedRowText(got);
        ++row;
    });
    EXPECT_EQ(row, std::size(kPinnedOoo));
}

// The commit-digest audit runs only when a caller passes telemetry;
// it must only observe.  The path without it (the runner's) returns
// the same SimResult on every pinned suite run.
TEST(Ooo, TelemetryOnlyObserves)
{
    std::size_t runs = 0;
    forEachSuiteRun([&](const SpecBenchmark &bench,
                        const char *machineName, const char *geometry,
                        const ExecTrace &, auto simulate) {
        OooTelemetry t;
        EXPECT_EQ(simulate(nullptr), simulate(&t))
            << machineName << " " << bench.params.name << " "
            << geometry;
        ++runs;
    });
    EXPECT_EQ(runs, std::size(kPinnedOoo));
}
