/**
 * @file
 * The out-of-order engine.
 *
 * The front end is the abstract model's own: both fetch through
 * frontEndFetch (sim/pipeline.hh) — one unit per cycle, the same
 * redirect formula and icache stall — and model wrong-path loads as
 * L1 hits.  Any IPC difference between the two models is therefore
 * attributable to the backend: finite rename registers, per-class
 * reservation stations and functional units, LSQ ordering
 * constraints, and the ROB's capacity and commit bandwidth in place
 * of the flat window.
 *
 * The engine is analytic rather than cycle-stepped: ops are processed
 * in program order and every structural constraint is expressed as a
 * lower bound on the op's dispatch or issue cycle (a reservation
 * station frees at its op's issue, a ROB slot at its unit's commit, a
 * physical register the cycle after the mapping that evicted it
 * commits).  That keeps the model deterministic by construction —
 * identical (trace, config) pairs produce bit-identical results on
 * any build.  It is one pass.  Picking a reservation station costs
 * the same at any geometry (a calendar of per-cycle station counts
 * per class whose earliest cycle only moves forward, sim/ooo/rs.hh),
 * renaming pops a counted free list (sim/ooo/rat.hh), and a load's
 * address gate is O(1) while its conflict search walks only the
 * queued stores (sim/ooo/lsq.hh).
 *
 * Two conventions keep the dcache stream well-defined: accesses are
 * performed in program order at scheduling time (commit-time store
 * release is modelled in the LSQ's timing, not in the cache state),
 * and a forwarded load skips the dcache entirely.
 */

#include "sim/ooo/ooo.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "cache/cache.hh"
#include "sim/lockstep.hh"
#include "sim/ooo/lsq.hh"
#include "sim/ooo/rat.hh"
#include "sim/ooo/rs.hh"
#include "sim/pipeline.hh"
#include "support/digest.hh"
#include "support/logging.hh"

namespace bsisa
{

namespace
{

/** OooFuClass by [memory flag][decoded latency]. */
static_assert(opIsMem == 1, "classByOp is indexed by the mem flag");
constexpr auto classByOp = [] {
    std::array<std::array<std::uint8_t, 256>, 2> t{};
    for (unsigned lat = 0; lat < 256; ++lat) {
        t[0][lat] = lat >= 8   ? oooClsDiv
                    : lat >= 3 ? oooClsMulFp
                               : oooClsAlu;
        t[1][lat] = oooClsMem;
    }
    return t;
}();

unsigned
classify(const DecodedOp &op)
{
    return classByOp[op.flags & opIsMem][op.latency];
}

unsigned
fuWidth(unsigned cls, unsigned issueWidth)
{
    switch (cls) {
    case oooClsAlu:
        return std::max(1u, issueWidth / 2);
    case oooClsMem:
    case oooClsMulFp:
        return std::max(1u, issueWidth / 4);
    default:
        return std::max(1u, issueWidth / 16);
    }
}

/** One @p T per functional-unit class, built by @p make(class). */
template <typename T, typename Make>
std::array<T, oooNumClasses>
perClass(Make make)
{
    return [&]<unsigned... C>(std::integer_sequence<unsigned, C...>) {
        return std::array<T, oooNumClasses>{make(C)...};
    }(std::make_integer_sequence<unsigned, oooNumClasses>{});
}

/** Fold one unit's committed identity; shared by the engine's
 *  commit-order digest and the emit-time reference. */
void
foldUnit(Fnv1a64 &digest, std::uint64_t pc, std::uint32_t bytes,
         std::uint32_t opCount, const std::uint64_t *addrs,
         std::uint32_t memCount)
{
    digest.u64(pc).u64(bytes).u64(opCount).u64(memCount);
    for (std::uint32_t i = 0; i < memCount; ++i)
        digest.u64(addrs[i]);
}

/** One in-flight (fetched, not yet drained) unit: what timing needs. */
struct RobUnit
{
    std::uint64_t commitEnd = 0;
    std::uint32_t ops = 0;
};

/** The identity of one in-flight unit, retained for the commit
 *  digest only when a caller asks for telemetry.  The address copy
 *  lives in a per-slot vector reused across occupancies, so the
 *  steady state allocates nothing. */
struct AuditUnit
{
    std::uint64_t pc = 0;
    std::uint32_t bytes = 0;
    std::vector<std::uint64_t> addrs;  //!< retained memAddrs copy
};

class OooEngine
{
  public:
    /** @p audited: retain each unit's identity and fold it into
     *  the commit digest as it drains. */
    OooEngine(const MachineConfig &config, OooTelemetry &telemetry,
              bool audited)
        : cfg(config), tel(telemetry),
          rat(config.ooo.physRegs),
          lsq(config.ooo.lsqEntries),
          fu(perClass<IssueSlots>([&](unsigned c) {
              return IssueSlots(fuWidth(c, config.issueWidth));
          })),
          rs(perClass<ReservationStations>([&](unsigned) {
              return ReservationStations(config.ooo.rsPerClass);
          })),
          icache(config.icache), dcache(config.dcache)
    {
        physReady.assign(cfg.ooo.physRegs, 0);
        rob.resize(std::size_t(cfg.ooo.robOps) + 1);
        if (audited)
            audit.resize(rob.size());
    }

    void step(const TimingUnit &unit);
    SimResult finish();

  private:
    std::uint64_t fetchPhase(const TimingUnit &unit);
    std::uint64_t scheduleWrongPath(const DecodedOp *ops,
                                    std::uint32_t n,
                                    unsigned mustRunIdx,
                                    std::uint64_t fetchCycle,
                                    std::uint64_t squashCutoff);

    std::size_t robNext(std::size_t i) const
    {
        return i + 1 == rob.size() ? 0 : i + 1;
    }

    std::size_t robSize() const
    {
        return robTail >= robHead ? robTail - robHead
                                  : robTail + rob.size() - robHead;
    }

    /** Drain the ROB head, into the commit digest when audited. */
    void popRobHead()
    {
        if (!audit.empty()) {
            const AuditUnit &a = audit[robHead];
            foldUnit(digest, a.pc, a.bytes, rob[robHead].ops,
                     a.addrs.data(), std::uint32_t(a.addrs.size()));
        }
        robOpsOcc -= rob[robHead].ops;
        robHead = robNext(robHead);
    }

    const MachineConfig &cfg;
    OooTelemetry &tel;
    SimResult res;

    RegAliasTable rat;
    std::vector<std::uint64_t> physReady;
    LoadStoreQueue lsq;
    std::array<IssueSlots, oooNumClasses> fu;
    std::array<ReservationStations, oooNumClasses> rs;

    std::vector<RobUnit> rob;
    /** Parallel to rob when audited, else empty. */
    std::vector<AuditUnit> audit;
    std::size_t robHead = 0;
    std::size_t robTail = 0;
    std::uint64_t robOpsOcc = 0;

    Cache icache;
    Cache dcache;
    Fnv1a64 digest;

    std::uint64_t lastFetch = ~0ull;  //!< so the first fetch is cycle 0
    std::uint64_t lastCommit = 0;
    std::vector<std::uint64_t> prevDone;
    std::uint32_t prevCount = 0;
    /** Evicted-mapping scratch of the unit being scheduled. */
    std::vector<std::uint16_t> evicted;
};

std::uint64_t
OooEngine::scheduleWrongPath(const DecodedOp *ops, std::uint32_t n,
                             unsigned mustRunIdx,
                             std::uint64_t fetchCycle,
                             std::uint64_t squashCutoff)
{
    const RegAliasTable::Checkpoint cp = rat.checkpoint();
    ++tel.checkpointsTaken;

    const std::uint64_t earliest = fetchCycle + cfg.frontendDepth;
    std::uint64_t resolve = earliest;
    std::uint64_t lastDispatch = earliest;

    for (std::uint32_t i = 0; i < n; ++i) {
        const DecodedOp &op = ops[i];
        const unsigned cls = classify(op);
        const std::uint64_t s1 = physReady[rat.lookup(op.src1)];
        const std::uint64_t s2 = physReady[rat.lookup(op.src2)];
        std::uint64_t dispatch = std::max(
            {earliest, lastDispatch, rs[cls].earliestFree()});
        const std::uint64_t ready0 = std::max({dispatch, s1, s2});
        if (i > mustRunIdx && ready0 > squashCutoff)
            continue;  // squashed before it could issue

        if (rat.freeCount() == 0) {
            // Free-list starvation on the wrong path: nothing
            // releases a register until the squash reclaims the
            // journal, so rename stalls past the resolve and the op
            // never issues.  The resolving op itself still has to
            // produce a resolve cycle — issue it without a rename
            // (its result is thrown away at the restore anyway).
            if (i != mustRunIdx)
                continue;
            const std::uint64_t start =
                fu[cls].allocate(std::max(ready0, dispatch));
            rs[cls].occupyEarliest(start + 1);
            ++res.wrongPathOps;
            resolve = start + op.latency;
            continue;
        }

        const RegAliasTable::Alloc alloc =
            rat.rename(op.dst, dispatch);
        dispatch = std::max(dispatch, alloc.ready);
        lastDispatch = dispatch;
        const std::uint64_t start =
            fu[cls].allocate(std::max(ready0, dispatch));
        // Wrong-path loads are modelled as L1 hits (their addresses
        // are speculative garbage) and wrong-path memory ops never
        // enter the LSQ: the restore below would remove them before
        // any committed-path op could observe them.
        const std::uint64_t done = start + op.latency;
        physReady[alloc.phys] = done;
        rs[cls].occupyEarliest(start + 1);
        if (i > mustRunIdx && start > squashCutoff)
            continue;  // issued past the squash: uncounted
        ++res.wrongPathOps;
        if (i == mustRunIdx)
            resolve = done;
    }

    rat.restore(cp, resolve);
    ++tel.checkpointsRestored;
    return resolve;
}

std::uint64_t
OooEngine::fetchPhase(const TimingUnit &unit)
{
    // ROB occupancy: drain units that have committed by @p fetch,
    // then wait for room.  A unit larger than the whole ROB
    // degenerates to sole occupancy (the capacity loop stops at an
    // empty ROB).
    auto wait_room = [&](std::uint64_t fetch) {
        while (robHead != robTail && rob[robHead].commitEnd <= fetch)
            popRobHead();
        while (robOpsOcc + unit.opCount > cfg.ooo.robOps &&
               robHead != robTail) {
            fetch = std::max(fetch, rob[robHead].commitEnd);
            popRobHead();
        }
        if (robOpsOcc + unit.opCount > cfg.ooo.robOps &&
            robHead != robTail)
            ++tel.robOverflows;
        return fetch;
    };
    const std::uint64_t fetch = frontEndFetch(
        cfg, icache, res, lastFetch, prevCount != 0, unit,
        unit.redirect, [&](unsigned op) { return prevDone[op]; },
        [&](const DecodedOp *ops, std::uint32_t n, unsigned mustRunIdx,
            std::uint64_t fetchCycle, std::uint64_t squashCutoff) {
            return scheduleWrongPath(ops, n, mustRunIdx, fetchCycle,
                                     squashCutoff);
        },
        wait_room);

    lastFetch = fetch;
    for (unsigned c = 0; c < oooNumClasses; ++c)
        fu[c].advanceTo(fetch);
    lsq.drainCommitted(fetch);

    prevCount = unit.opCount;
    return fetch + cfg.frontendDepth;
}

void
OooEngine::step(const TimingUnit &unit)
{
    const std::uint64_t renameBase = fetchPhase(unit);

    if (prevDone.size() < unit.opCount) {
        prevDone.resize(unit.opCount);
        evicted.resize(unit.opCount);
    }

    const std::uint64_t unitLsqBase = lsq.nextSeq();
    std::uint64_t unitDone = renameBase;
    std::uint64_t lastDispatch = renameBase;
    std::uint32_t memIdx = 0;
    std::uint32_t nextReclaim = 0;

    for (std::uint32_t i = 0; i < unit.opCount; ++i) {
        const DecodedOp &op = unit.ops[i];
        const unsigned cls = classify(op);

        // Sources read the committed/speculative map before this
        // op's own destination is renamed.
        const std::uint64_t s1 = physReady[rat.lookup(op.src1)];
        const std::uint64_t s2 = physReady[rat.lookup(op.src2)];

        // In-order dispatch: a reservation station of the class, an
        // LSQ entry for memory ops, and a free physical register.
        std::uint64_t dispatch = std::max(
            {renameBase, lastDispatch, rs[cls].earliestFree()});

        if (op.flags & opIsMem) {
            while (lsq.full()) {
                const std::uint64_t oc = lsq.oldestCommit();
                if (oc == LoadStoreQueue::commitPending) {
                    // The whole queue belongs to this unit (more
                    // memory ops than entries): reclaim in program
                    // order rather than deadlock.
                    lsq.popOldest();
                } else {
                    dispatch = std::max(dispatch, oc + 1);
                    lsq.drainCommitted(oc);
                }
            }
        }

        // A unit holding more renames in flight than spare physical
        // registers waits for its own older ops to commit and free
        // their evictions (hardware frees per op at commit; the
        // analytic model reclaims in program order, available no
        // earlier than the op's completion or the previous unit's
        // commit).  Dry ring => i - nextReclaim == spare >= 1, so
        // the reclaim always finds an unreleased eviction.
        while (rat.freeCount() == 0) {
            BSISA_ASSERT(nextReclaim < i, "rename starvation");
            rat.release(evicted[nextReclaim],
                        std::max(prevDone[nextReclaim] + 1,
                                 lastCommit + 1));
            ++nextReclaim;
        }

        const RegAliasTable::Alloc alloc =
            rat.rename(op.dst, dispatch);
        if (alloc.ready > dispatch) {
            tel.renameStallCycles += alloc.ready - dispatch;
            dispatch = alloc.ready;
        }
        lastDispatch = dispatch;
        evicted[i] = alloc.prev;

        std::uint64_t ready = std::max({dispatch, s1, s2});
        std::uint64_t start;
        unsigned latency = op.latency;

        if (op.flags & opIsMem) {
            const std::uint64_t addr =
                memIdx < unit.memCount ? unit.memAddrs[memIdx] : 0;
            ++memIdx;
            if (op.flags & opIsLoad) {
                // Conservative alias discipline: no load issues
                // before every older store's address is known.
                ready = std::max(ready, lsq.olderStoreAddrReady());
                const LoadStoreQueue::Conflict c =
                    lsq.searchOlderStores(addr);
                if (c.kind == LoadStoreQueue::ConflictKind::Forward) {
                    if (c.storeSeq >= lsq.nextSeq())
                        ++tel.youngerForwards;
                    start = fu[oooClsMem].allocate(
                        std::max(ready, c.dataReady));
                    latency = 1;  // bypassed from the store buffer
                    ++tel.forwardedLoads;
                } else {
                    if (c.kind ==
                        LoadStoreQueue::ConflictKind::Overlap) {
                        ready = std::max(ready, c.drain + 1);
                        ++tel.overlapStallLoads;
                    }
                    start = fu[oooClsMem].allocate(ready);
                    if (!dcache.access(addr))
                        latency += cfg.l2Latency;
                }
                lsq.pushLoad(addr, start);
            } else {
                start = fu[oooClsMem].allocate(ready);
                dcache.access(addr);  // stores never extend latency
                lsq.pushStore(addr, start, start + latency);
            }
            tel.peakLsq =
                std::max<std::uint64_t>(tel.peakLsq, lsq.size());
        } else {
            start = fu[cls].allocate(ready);
        }

        const std::uint64_t done = start + latency;
        physReady[alloc.phys] = done;
        rs[cls].occupyEarliest(start + 1);
        prevDone[i] = done;
        unitDone = std::max(unitDone, done);
    }

    // In-order commit from the ROB head, commitWidth ops per cycle.
    const std::uint64_t first =
        std::max(unitDone + 1, lastCommit + 1);
    const std::uint64_t span =
        (std::uint64_t(unit.opCount) + cfg.ooo.commitWidth - 1) /
        cfg.ooo.commitWidth;
    const std::uint64_t commitEnd = first + span - 1;
    if (commitEnd < lastCommit)
        ++tel.commitOrderViolations;
    lastCommit = commitEnd;

    for (std::uint32_t i = nextReclaim; i < unit.opCount; ++i)
        rat.release(evicted[i], commitEnd + 1);
    lsq.stampCommit(unitLsqBase, commitEnd);

    rob[robTail] = {commitEnd, unit.opCount};
    if (!audit.empty()) {
        // Retain the identity (and an address copy) until it drains.
        AuditUnit &a = audit[robTail];
        a.pc = unit.pc;
        a.bytes = unit.bytes;
        a.addrs.assign(unit.memAddrs, unit.memAddrs + unit.memCount);
    }
    robTail = robNext(robTail);
    BSISA_ASSERT(robTail != robHead, "ROB ring overflow");
    robOpsOcc += unit.opCount;

    tel.peakRobOps = std::max(tel.peakRobOps, robOpsOcc);
    tel.peakRobUnits =
        std::max<std::uint64_t>(tel.peakRobUnits, robSize());

    res.retiredOps += unit.opCount;
    res.retiredUnits += 1;
    res.cycles = std::max(res.cycles, commitEnd);
}

SimResult
OooEngine::finish()
{
    while (robHead != robTail)
        popRobHead();
    if (!audit.empty())
        tel.commitDigest = digest.value();
    res.peakWindowUnits = tel.peakRobUnits;
    res.peakWindowOps = tel.peakRobOps;
    res.icache = icache.stats();
    res.dcache = dcache.stats();
    return res;
}

} // namespace

SimResult
simulateOoO(FetchSource &source, const MachineConfig &config,
            OooTelemetry *telemetry)
{
    OooTelemetry local;
    OooTelemetry &tel = telemetry ? *telemetry : local;
    tel = OooTelemetry{};

    OooEngine engine(config, tel, telemetry != nullptr);
    TimingUnit unit;
    while (source.next(unit))
        engine.step(unit);

    SimResult result = engine.finish();
    fillSourceStats(result, source.counters());
    return result;
}

std::uint64_t
fetchStreamDigest(FetchSource &source)
{
    Fnv1a64 digest;
    TimingUnit unit;
    while (source.next(unit))
        foldUnit(digest, unit.pc, unit.bytes, unit.opCount,
                 unit.memAddrs, unit.memCount);
    return digest.value();
}

} // namespace bsisa
