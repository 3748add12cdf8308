/**
 * @file
 * Lockstep sweep engine implementation.
 *
 * LanePipelines is the single source of the pipeline arithmetic: the
 * per-lane phase helpers below are the scheduling model, the
 * one-unit-one-lane stepOneLane() (which simulatePipeline also
 * drives) is a thin composition of them, and the op-major
 * opMajorChunk() performs the same per-lane operations in the same
 * per-lane order — only the cross-lane interleaving differs, and
 * lanes never interact, so the one-lane and op-major paths are
 * bit-identical by construction.
 *
 * One engine (LockstepEngine below) drives both machines, as a
 * template over the machine's fetch walker (sim/fetch_outcome.hh).  It
 * runs one walker per prediction group over a shared translation in a
 * pre-pass, one capture window at a time, recording one
 * FetchOutcomeRecord per fetch step into each group's
 * FetchOutcomeStream, and the timing walk then advances the window's
 * streams by MINIMUM POSITION, so lanes of different prediction
 * groups that commit the same unit at the same position fuse into one
 * full-width op-major batch (per-lane redirects gathered from the
 * streams).  The machines differ only in what their translation
 * computes once per stream position instead of once per
 * (position, config):
 *
 *   - conventional: unit boundaries are config-independent (one basic
 *     block per event), so every group commits the event's block at
 *     every position and the whole machine population steps as one
 *     batch per event;
 *   - block-structured: the maximal-variant trie walk, its variant
 *     index and stream compatibility, the consumed event count, and
 *     the unit's pooled address span all depend only on the stream
 *     position — one memo entry of the shared BsaTranslation
 *     (sim/bsa_source.hh) captures them for every group; a group's
 *     predictor may commit a shallower compatible variant, in which
 *     case that group commits its own (rare) shallow unit and its
 *     cursor drifts until it re-meets the others at a head boundary.
 *
 * Two further layers of sharing apply to both machines.
 * Prediction is purely stream-driven (predictors train on committed
 * outcomes, never on timing), so lanes with identical predictor
 * geometry — and all oracle-prediction lanes, which never touch a
 * predictor — form prediction groups that share one walker and one
 * redirect stream.  One lane plan (planLanes below) collapses
 * effectively identical configs to one lane and lays each group's
 * lanes out as one contiguous range, so a group advances as one
 * op-major stepBatch over register-major lane rows.
 * And because wrong-path loads never touch the dcache, the
 * committed-order dcache hit/miss stream is a pure function of
 * (trace, dcache geometry): LanePipelines precomputes it once per
 * distinct geometry and every lane reads outcome bits instead of
 * running its own cache model; one per-lane rule (dcacheHit) reads
 * that bit, or forks the lane a private cache at the pool's end.
 * Effectively identical configs (oracle rows swept across predictor
 * geometry) share one lane whose result is replicated on return.
 */

#include "sim/lockstep.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/fetch_outcome.hh"
#include "support/logging.hh"
#include "support/simd_dispatch.hh"

namespace bsisa
{

// ------------------------------------------------- fetch-phase stats

namespace
{

thread_local LockstepFetchStats tlsFetchStats;

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

} // namespace

const LockstepFetchStats &
lockstepLastFetchStats()
{
    return tlsFetchStats;
}

LockstepFetchStats &
lockstepFetchStatsSlot()
{
    return tlsFetchStats;
}

// ------------------------------------------------------ LanePipelines

LanePipelines::LanePipelines(const MachineConfig *cfgs,
                             std::size_t laneCount)
    : configs(cfgs, cfgs + laneCount), lanes(laneCount),
      results(laneCount), stride(laneStride(laneCount)),
      dcacheStreamOf(laneCount, -1)
{
    slots.reserve(laneCount);
    icaches.reserve(laneCount);
    dcaches.reserve(laneCount);
    l2Lat.reserve(laneCount);
    inflightBase.reserve(laneCount + 1);
    std::uint32_t base = 0;
    for (std::size_t l = 0; l < laneCount; ++l) {
        slots.emplace_back(configs[l].issueWidth);
        icaches.emplace_back(configs[l].icache);
        dcaches.emplace_back(configs[l].dcache);
        l2Lat.push_back(configs[l].l2Latency);
        inflightBase.push_back(base);
        base += configs[l].windowUnits + 1;
        prevRows = std::max<std::size_t>(prevRows,
                                         configs[l].windowOps);
    }
    inflightBase.push_back(base);
    inflightPool.resize(base);
    regReady.assign(laneRegs * stride, 0);
    wrongReady.assign(laneRegs * stride, 0);
    wrongStamp.assign(laneRegs * stride, 0);
    prevDone.assign(prevRows * stride, 0);
    scrEarliest.assign(chunkLanes, 0);
    scrUnitDone.assign(chunkLanes, 0);
}

void
LanePipelines::shareDcachePool(const std::uint64_t *addrs,
                               std::size_t count)
{
    dcachePool = addrs;
    dcachePoolCount = count;
    dcacheStreams.clear();

    // One precomputed pool walk per distinct dcache geometry.
    std::vector<std::size_t> owner;  // lane that introduced a stream
    for (std::size_t l = 0; l < configs.size(); ++l) {
        const CacheConfig &cfg = configs[l].dcache;
        std::int32_t stream = -1;
        for (std::size_t s = 0; s < owner.size(); ++s) {
            if (cfg == configs[owner[s]].dcache) {
                stream = static_cast<std::int32_t>(s);
                break;
            }
        }
        if (stream < 0) {
            stream = static_cast<std::int32_t>(dcacheStreams.size());
            owner.push_back(l);
            DcacheStream &ds = dcacheStreams.emplace_back(
                DcacheStream{Cache(cfg), {}});
            ds.hit.resize(count);
            for (std::size_t i = 0; i < count; ++i)
                ds.hit[i] = ds.cache.access(addrs[i]) ? 1 : 0;
        }
        dcacheStreamOf[l] = stream;
    }
}

void
LanePipelines::privatizeDcache(std::size_t lane, const TimingUnit &unit)
{
    const std::int32_t ds = dcacheStreamOf[lane];
    BSISA_ASSERT(ds >= 0);
    // Units tile the pool in stream order, so only the pool's last
    // unit can hold mem ops past its span, and by then the lane has
    // read every pool access: adopt the stream's final state and
    // statistics wholesale.
    BSISA_ASSERT(poolIndex(unit) + unit.memCount == dcachePoolCount,
                 "a lane left its dcache stream before the pool's end");
    dcaches[lane] = dcacheStreams[ds].cache;
    dcacheStreamOf[lane] = -1;
}

bool
LanePipelines::dcacheHit(std::size_t lane, const TimingUnit &unit,
                         std::uint32_t memIdx)
{
    // Stores access the cache too; only loads take the miss penalty
    // (the caller applies it).
    const std::int32_t ds = dcacheStreamOf[lane];
    const bool in_pool = memIdx < unit.memCount;
    if (ds >= 0 && in_pool)
        return dcacheStreams[ds].hit[poolIndex(unit) + memIdx] != 0;
    if (ds >= 0)
        privatizeDcache(lane, unit);
    return dcaches[lane].access(in_pool ? unit.memAddrs[memIdx] : 0);
}

std::uint64_t
LanePipelines::scheduleWrongPath(std::size_t lane, const DecodedOp *ops,
                                 std::uint32_t n, unsigned mustRunIdx,
                                 std::uint64_t fetchCycle,
                                 std::uint64_t squashCutoff)
{
    LaneState &st = lanes[lane];
    IssueSlots &sl = slots[lane];
    // Register-major rows: slot r of this lane is r * stride in.
    const std::uint64_t *rr = regReady.data() + lane;
    std::uint64_t *wr = wrongReady.data() + lane;
    std::uint64_t *ws = wrongStamp.data() + lane;

    const std::uint64_t gen = ++st.wrongGen;
    const std::uint64_t earliest =
        fetchCycle + configs[lane].frontendDepth;
    std::uint64_t resolve = earliest;

    // Absent sources decode to regZero, which is never stamped (no op
    // writes it) and whose committed ready time is pinned at 0 — so
    // both sources can be read unconditionally.
    auto ready_of = [&](RegNum r) -> std::uint64_t {
        return ws[r * stride] == gen ? wr[r * stride] : rr[r * stride];
    };

    for (std::uint32_t i = 0; i < n; ++i) {
        const DecodedOp &op = ops[i];
        const std::uint64_t ready =
            std::max({earliest, ready_of(op.src1), ready_of(op.src2)});

        if (i > mustRunIdx && ready > squashCutoff)
            continue;  // squashed before it could issue

        const std::uint64_t start = sl.allocate(ready);
        if (i > mustRunIdx && start > squashCutoff)
            continue;
        ++results[lane].wrongPathOps;
        // Wrong-path loads are modelled as L1 hits: their addresses
        // are speculative garbage we do not track.
        const std::uint64_t done = start + op.latency;
        wr[op.dst * stride] = done;
        ws[op.dst * stride] = gen;
        if (i == mustRunIdx)
            resolve = done;
    }
    return resolve;
}

std::uint64_t
LanePipelines::fetchPhase(std::size_t lane, const TimingUnit &unit,
                          const RedirectInfo &redirect)
{
    const MachineConfig &cfg = configs[lane];
    LaneState &st = lanes[lane];
    Inflight *ring = inflightOf(lane);
    const std::uint32_t cap = inflightBase[lane + 1] -
                              inflightBase[lane];

    // Window occupancy: retire what has left by @p fetch, then wait
    // for room.
    auto wait_room = [&](std::uint64_t fetch) {
        auto ring_size = [&]() -> std::uint32_t {
            return st.inflightTail >= st.inflightHead
                       ? st.inflightTail - st.inflightHead
                       : st.inflightTail + cap - st.inflightHead;
        };
        while (st.inflightHead != st.inflightTail &&
               ring[st.inflightHead].retire <= fetch) {
            st.inflightOps -= ring[st.inflightHead].ops;
            if (++st.inflightHead == cap)
                st.inflightHead = 0;
        }
        while (ring_size() >= cfg.windowUnits ||
               st.inflightOps + unit.opCount > cfg.windowOps) {
            BSISA_ASSERT(st.inflightHead != st.inflightTail,
                         "unit larger than the whole window");
            fetch = std::max(fetch, ring[st.inflightHead].retire);
            st.inflightOps -= ring[st.inflightHead].ops;
            if (++st.inflightHead == cap)
                st.inflightHead = 0;
        }
        return fetch;
    };
    const std::uint64_t fetch = frontEndFetch(
        cfg, icaches[lane], results[lane], st.lastFetch,
        st.prevCount != 0, unit, redirect,
        [&](unsigned op) { return prevRow(op)[lane]; },
        [&](const DecodedOp *ops, std::uint32_t n, unsigned mustRunIdx,
            std::uint64_t fetchCycle, std::uint64_t squashCutoff) {
            return scheduleWrongPath(lane, ops, n, mustRunIdx, fetchCycle,
                                     squashCutoff);
        },
        wait_room);

    st.lastFetch = fetch;
    slots[lane].advanceTo(fetch);

    // The schedule phase writes prevDone[0..opCount); mark the count
    // now that the redirect above has read the previous unit's times.
    BSISA_ASSERT(unit.opCount <= prevRows,
                 "unit larger than the whole window");
    st.prevCount = unit.opCount;
    return fetch + cfg.frontendDepth;
}

void
LanePipelines::retirePhase(std::size_t lane, std::uint32_t unitOps,
                           std::uint64_t unitDone)
{
    LaneState &st = lanes[lane];
    SimResult &res = results[lane];

    const std::uint64_t retire =
        std::max(unitDone + 1, st.lastRetire + 1);
    st.lastRetire = retire;

    Inflight *ring = inflightOf(lane);
    const std::uint32_t cap = inflightBase[lane + 1] -
                              inflightBase[lane];
    ring[st.inflightTail] = {retire, unitOps};
    if (++st.inflightTail == cap)
        st.inflightTail = 0;
    BSISA_ASSERT(st.inflightTail != st.inflightHead,
                 "inflight ring overflow");
    st.inflightOps += unitOps;

    const std::uint32_t size = st.inflightTail >= st.inflightHead
                                   ? st.inflightTail - st.inflightHead
                                   : st.inflightTail + cap -
                                         st.inflightHead;
    res.peakWindowUnits =
        std::max<std::uint64_t>(res.peakWindowUnits, size);
    res.peakWindowOps =
        std::max<std::uint64_t>(res.peakWindowOps, st.inflightOps);

    res.retiredOps += unitOps;
    res.retiredUnits += 1;
    res.cycles = std::max(res.cycles, retire);
}

void
LanePipelines::stepOneLane(std::size_t lane, const TimingUnit &unit,
                           const RedirectInfo &redirect)
{
    const std::uint64_t earliest = fetchPhase(lane, unit, redirect);
    const MachineConfig &cfg = configs[lane];
    IssueSlots &sl = slots[lane];
    // Register-major rows: slot r of this lane is r * stride in (for
    // the one-lane pipeline stride is 1 and this is a dense array).
    std::uint64_t *rr = regReady.data() + lane;
    std::uint64_t *pd = prevDone.data() + lane;

    std::uint64_t unit_done = earliest;
    std::uint32_t mem_idx = 0;

    for (std::uint32_t i = 0; i < unit.opCount; ++i) {
        const DecodedOp &op = unit.ops[i];
        const std::uint64_t ready = std::max(
            {earliest, rr[op.src1 * stride], rr[op.src2 * stride]});

        const std::uint64_t start = sl.allocate(ready);
        unsigned latency = op.latency;
        if (op.flags & opIsMem) {
            const bool hit = dcacheHit(lane, unit, mem_idx++);
            if (!hit && (op.flags & opIsLoad))
                latency += cfg.l2Latency;
        }
        const std::uint64_t done = start + latency;
        pd[std::size_t(i) * stride] = done;
        rr[op.dst * stride] = done;
        unit_done = std::max(unit_done, done);
    }

    retirePhase(lane, unit.opCount, unit_done);
}

void
LanePipelines::step(std::size_t lane, const TimingUnit &unit)
{
    stepOneLane(lane, unit, unit.redirect);
}

void
LanePipelines::opMajorChunk(std::size_t first, std::size_t n,
                            const TimingUnit &unit,
                            const RedirectInfo *redirects)
{
    BSISA_ASSERT(n >= 1 && n <= chunkLanes);
    std::uint64_t *earliest = scrEarliest.data();
    std::uint64_t *unit_done = scrUnitDone.data();

    for (std::size_t l = 0; l < n; ++l) {
        earliest[l] = fetchPhase(
            first + l, unit,
            redirects ? redirects[l] : unit.redirect);
        unit_done[l] = earliest[l];
    }

    // Resolve every memory op's cache outcome up front into one lane
    // bitmask per mem op.  Cache state never depends on scheduling,
    // and per-lane access order is preserved, so hoisting the cache
    // walk out of the scheduling loop is behavior-preserving — and it
    // leaves the kernel branchless.
    std::uint32_t n_mem = 0;
    for (std::uint32_t i = 0; i < unit.opCount; ++i)
        n_mem += (unit.ops[i].flags & opIsMem) ? 1 : 0;
    if (scrMiss.size() < n_mem)
        scrMiss.resize(n_mem);
    if (n_mem > 0) {
        // Batched lanes usually share one dcache stream (same
        // geometry), and mem op m of this unit reads the stream at
        // the unit's pool offset + m on every lane.  One byte read
        // then serves the whole batch: broadcast miss to all lanes.
        const std::int32_t ds0 = dcacheStreamOf[first];
        bool uniform = n_mem <= unit.memCount && ds0 >= 0;
        for (std::size_t l = 1; uniform && l < n; ++l)
            uniform = dcacheStreamOf[first + l] == ds0;
        if (uniform) {
            const std::uint64_t full =
                n >= 64 ? ~std::uint64_t(0)
                        : (std::uint64_t(1) << n) - 1;
            const std::uint8_t *hit =
                dcacheStreams[ds0].hit.data() + poolIndex(unit);
            for (std::uint32_t m = 0; m < n_mem; ++m)
                scrMiss[m] = hit[m] ? 0 : full;
        } else {
            // Per-lane access order is op order, as in stepOneLane.
            for (std::uint32_t m = 0; m < n_mem; ++m) {
                scrMiss[m] = 0;
                for (std::size_t l = 0; l < n; ++l) {
                    scrMiss[m] |=
                        std::uint64_t(!dcacheHit(first + l, unit, m)) << l;
                }
            }
        }
    }

    // The whole op walk is one kernel call (scalar or SIMD).
    StepOpsCtx ctx;
    ctx.ops = unit.ops;
    ctx.opCount = unit.opCount;
    ctx.missMasks = scrMiss.data();
    ctx.slots = slots.data() + first;
    ctx.regBase = regReady.data() + first;
    ctx.prevBase = prevDone.data() + first;
    ctx.l2Lat = l2Lat.data() + first;
    ctx.earliest = earliest;
    ctx.unitDone = unit_done;
    ctx.stride = stride;
    ctx.n = n;
    simdKernels().stepOps(ctx);

    for (std::size_t l = 0; l < n; ++l)
        retirePhase(first + l, unit.opCount, unit_done[l]);
}

void
LanePipelines::stepBatch(std::size_t first, std::size_t count,
                         const TimingUnit &unit,
                         const RedirectInfo *redirects)
{
    BSISA_ASSERT(first + count <= lanes.size());
    LockstepFetchStats &fs = lockstepFetchStatsSlot();
    ++fs.timingBatches;
    fs.timingLaneSteps += count;
    if (count > fs.maxBatchLanes)
        fs.maxBatchLanes = count;
    if (count == 1) {
        stepOneLane(first, unit, redirects ? redirects[0] : unit.redirect);
        return;
    }
    // The per-op dcache miss mask is one word wide, so op-major
    // passes advance at most chunkLanes lanes at a time.
    for (std::size_t base = 0; base < count; base += chunkLanes) {
        opMajorChunk(first + base,
                     std::min<std::size_t>(chunkLanes, count - base),
                     unit, redirects ? redirects + base : nullptr);
    }
}

SimResult
LanePipelines::takeResult(std::size_t lane) const
{
    SimResult result = results[lane];
    result.icache = icaches[lane].stats();
    // A lane still on its shared stream has read the whole pool, so
    // its statistics are the stream cache's.
    const std::int32_t ds = dcacheStreamOf[lane];
    result.dcache = ds >= 0 ? dcacheStreams[ds].cache.stats()
                            : dcaches[lane].stats();
    return result;
}

void
fillSourceStats(SimResult &result, const FetchWalkCounters &counters)
{
    result.predictions = counters.nPredictions;
    result.mispredicts = counters.nTrapMiss + counters.nFaultMiss;
    result.trapMispredicts = counters.nTrapMiss;
    result.faultMispredicts = counters.nFaultMiss;
    result.cascadeHops = counters.nCascadeHops;
}

// ------------------------------------------- config structure probes

namespace
{

/** Same prediction *state* evolution: identical predictor geometry,
 *  or both oracle (perfect prediction never touches the predictor, so
 *  its geometry is dead configuration). */
bool
samePredictionState(const MachineConfig &a, const MachineConfig &b)
{
    if (a.perfectPrediction != b.perfectPrediction)
        return false;
    return a.perfectPrediction || a.predictor == b.predictor;
}

/** Effectively identical machines produce bit-identical SimResults on
 *  the same stream, so a sweep grid that contains them (oracle rows
 *  swept over predictor geometry do this by construction) needs only
 *  one lane per equivalence class: the same prediction state, and
 *  equal in every field the abstract pipeline reads. */
bool
sameEffectiveConfig(MachineConfig a, MachineConfig b)
{
    if (!samePredictionState(a, b))
        return false;
    b.predictor = a.predictor;
    b.ooo = a.ooo;
    return a == b;
}

/**
 * The lane layout of one lockstep run, decided in one pass over the
 * input configs.  Effectively identical configs share one lane, and
 * each prediction group's lanes form one contiguous range (the shape
 * stepBatch consumes).  Groups, and the lanes inside a group, keep
 * their first-appearance order, so the config that seeds each group's
 * walker is the group's first input config.  Lanes never interact
 * inside LanePipelines, so the layout cannot change any result.
 */
struct LanePlan
{
    std::vector<MachineConfig> lanes;
    /** Prediction groups as (first lane, lane count) ranges. */
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    std::vector<std::size_t> laneOf;  //!< input config -> lane
};

LanePlan
planLanes(const std::vector<MachineConfig> &machines)
{
    // Each group's distinct configs (input indices), and each input's
    // (group, member) slot; effective identity implies the same
    // prediction state, so a config's duplicate is in its own group.
    std::vector<std::vector<std::size_t>> members;
    std::vector<std::pair<std::size_t, std::size_t>> slot(machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i) {
        std::size_t g = 0;
        while (g < members.size() &&
               !samePredictionState(machines[i], machines[members[g][0]]))
            ++g;
        if (g == members.size())
            members.emplace_back();
        std::vector<std::size_t> &group = members[g];
        std::size_t k = 0;
        while (k < group.size() &&
               !sameEffectiveConfig(machines[i], machines[group[k]]))
            ++k;
        if (k == group.size())
            group.push_back(i);
        slot[i] = {g, k};
    }

    LanePlan plan;
    for (const std::vector<std::size_t> &group : members) {
        plan.groups.emplace_back(plan.lanes.size(), group.size());
        for (const std::size_t i : group)
            plan.lanes.push_back(machines[i]);
    }
    for (const auto &[g, k] : slot)
        plan.laneOf.push_back(plan.groups[g].first + k);
    return plan;
}

// ------------------------------------------------------------ engine

/**
 * The lockstep engine, one instantiation per machine: N fetch walkers
 * (sim/fetch_outcome.hh), one per prediction group, over one shared
 * translation, so the config-independent translation of each stream
 * position is computed once for every group.  Each group's lanes are
 * one contiguous range of the lane plan (planLanes), so a group steps
 * as one op-major batch.
 *
 * run() works in capture windows of fetchCaptureWindow events: every
 * group's walker captures the steps that start in the window into the
 * group's FetchOutcomeStream, then timingWalk consumes the recorded
 * streams by minimum position so groups whose streams coincide at a
 * position — committing the same unit — FUSE into one full-width
 * stepBatch with per-lane redirects gathered from the streams.
 */
template <class Walker>
class LockstepEngine
{
  public:
    using Translation = typename Walker::Translation;

    /** @p args construct the translation. */
    template <class... Args>
    explicit LockstepEngine(const LanePlan &lanePlan, const Args &...args)
        : plan(lanePlan), translation{args...}
    {
        groups.reserve(plan.groups.size());
        for (const auto &[first, count] : plan.groups) {
            const MachineConfig &config = plan.lanes[first];
            Group &group =
                groups.emplace_back(translation, config, first, count);
            // Exact window bounds keep the capture walk allocation-free:
            // the lockstep steady state performs a length-independent
            // number of heap allocations (tests/test_decoded.cc).
            group.stream.reserveWindow(translation.trace,
                                       !config.perfectPrediction);
        }
        laneRedirects.resize(plan.lanes.size());
        atPos.reserve(groups.size());
    }

    /** Run every lane; the results are in input-config order. */
    std::vector<SimResult> run();

  private:
    /** One prediction group: the shared fetch side of every lane whose
     *  prediction evolution is identical. */
    struct Group
    {
        Group(Translation &translation, const MachineConfig &config,
              std::size_t firstLane, std::size_t laneCount)
            : walker(translation, config), first(firstLane),
              count(laneCount)
        {
        }

        Walker walker;
        std::size_t first;  //!< member lanes: [first, first + count)
        std::size_t count;
        /** The group's fetch outcomes in the current capture window,
         *  and the timing walk's cursors into them. */
        FetchOutcomeStream stream;
        std::size_t nextStep = 0;
        std::size_t nextRedirect = 0;
    };

    /** Consume every group's captured window by minimum position,
     *  fusing coincident groups into full-width batches. */
    void timingWalk(LanePipelines &pipes);

    const LanePlan &plan;
    Translation translation;
    std::vector<Group> groups;
    /** timingWalk scratch: per-lane redirect rows (all clear between
     *  batches), and the groups whose next record sits at the current
     *  minimum position. */
    std::vector<RedirectInfo> laneRedirects;
    std::vector<std::size_t> atPos;
};

template <class Walker>
void
LockstepEngine<Walker>::timingWalk(LanePipelines &pipes)
{
    // The timing walk consumes the streams as plain data by MINIMUM
    // POSITION: at each round the groups whose next record sits at the
    // minimum stream position are partitioned by committed unit, and
    // each partition — adjacent groups form one contiguous lane run —
    // steps as one full-width batch with per-lane redirects gathered
    // from the streams.  Lanes never interact and each lane still sees
    // its own (unit, redirect) sequence in stream order, so any such
    // interleaving is bit-identical to the singleton replay.
    constexpr std::size_t consumedMark = ~std::size_t(0);
    TimingUnit unit{};
    for (;;) {
        std::uint32_t minPos = ~std::uint32_t(0);
        atPos.clear();
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const Group &group = groups[g];
            if (group.nextStep == group.stream.steps.size())
                continue;
            const std::uint32_t pos = group.stream.steps[group.nextStep].pos;
            if (pos < minPos) {
                minPos = pos;
                atPos.clear();
            }
            if (pos == minPos)
                atPos.push_back(g);
        }
        if (atPos.empty())
            break;
        for (std::size_t i = 0; i < atPos.size(); ++i) {
            if (atPos[i] == consumedMark)
                continue;
            const Group &leader = groups[atPos[i]];  // partition leader
            const FetchOutcomeRecord lead =
                leader.stream.steps[leader.nextStep];
            translation.buildUnit(lead, unit);
            std::size_t runFirst = 0;
            std::size_t runCount = 0;
            bool runRedirected = false;
            // Most runs redirect no lane at all; those step with the
            // unit's clear redirect and skip the per-lane rows.
            auto flush = [&]() {
                if (runCount == 0)
                    return;
                if (runRedirected) {
                    pipes.stepBatch(runFirst, runCount, unit,
                                    laneRedirects.data() + runFirst);
                    std::fill_n(laneRedirects.begin() +
                                    std::ptrdiff_t(runFirst),
                                runCount, RedirectInfo{});
                } else {
                    pipes.stepBatch(runFirst, runCount, unit);
                }
                runCount = 0;
                runRedirected = false;
            };
            for (std::size_t j = i; j < atPos.size(); ++j) {
                if (atPos[j] == consumedMark)
                    continue;
                Group &grp = groups[atPos[j]];
                const FetchOutcomeStream &st = grp.stream;
                const FetchOutcomeRecord &r = st.steps[grp.nextStep];
                if (r.committed != lead.committed)
                    continue;
                // Same position, same unit: the span content is
                // identical whichever group's storage backs it.
                BSISA_ASSERT(r.memCount == lead.memCount);
                if (runCount > 0 && grp.first == runFirst + runCount) {
                    runCount += grp.count;
                } else {
                    flush();
                    runFirst = grp.first;
                    runCount = grp.count;
                }
                if (grp.nextRedirect < st.redirectStep.size() &&
                    st.redirectStep[grp.nextRedirect] == grp.nextStep) {
                    std::fill_n(laneRedirects.begin() +
                                    std::ptrdiff_t(grp.first),
                                grp.count, st.redirects[grp.nextRedirect++]);
                    runRedirected = true;
                }
                ++grp.nextStep;
                atPos[j] = consumedMark;
            }
            flush();
        }
    }
}

template <class Walker>
std::vector<SimResult>
LockstepEngine<Walker>::run()
{
    const ExecTrace &trace = translation.trace;
    LanePipelines pipes(plan.lanes.data(), plan.lanes.size());
    pipes.shareDcachePool(trace.memAddrs, trace.memAddrCount);

    LockstepFetchStats &fs = lockstepFetchStatsSlot();
    fs = LockstepFetchStats{};
    fs.groups = groups.size();
    fs.lanes = plan.lanes.size();
    fs.fused = true;

    // Capture window by window.  Every group records the steps that
    // start before the window's end — on the BSA the first group to
    // reach a position fills its memo entry, the rest read it hot —
    // and then the timing walk consumes them.  A record at position p
    // lands in the window that contains p, so the timing walk sees,
    // window after window, exactly the minimum-position order of one
    // capture over the whole trace: results and every counter are
    // independent of the window size.
    using Clock = std::chrono::steady_clock;
    for (std::size_t begin = 0; begin < trace.eventCount;
         begin += fetchCaptureWindow) {
        const std::size_t end =
            std::min(trace.eventCount, begin + fetchCaptureWindow);
        const auto t0 = Clock::now();
        translation.startWindow(begin);
        for (Group &group : groups) {
            group.stream.clear();
            group.nextStep = 0;
            group.nextRedirect = 0;
            while (group.walker.pos < end)
                group.walker.captureStep(group.stream);
        }
        const auto t1 = Clock::now();
        timingWalk(pipes);
        const auto t2 = Clock::now();
        fs.fetchSeconds += secondsBetween(t0, t1);
        fs.timingSeconds += secondsBetween(t1, t2);
    }

    for (const Group &group : groups)
        fs.fetchSteps += group.walker.nFetchSteps;
    fs.memoLookups = translation.memoLookups;
    fs.memoComputes = translation.memoComputes;

    std::vector<SimResult> laneOut(plan.lanes.size());
    for (const Group &group : groups) {
        for (std::size_t l = group.first; l < group.first + group.count;
             ++l) {
            laneOut[l] = pipes.takeResult(l);
            fillSourceStats(laneOut[l], group.walker);
        }
    }
    std::vector<SimResult> out;
    out.reserve(plan.laneOf.size());
    for (const std::size_t l : plan.laneOf)
        out.push_back(laneOut[l]);
    return out;
}

/** Run @p machines through one LockstepEngine<Walker> over the
 *  translation built from @p args. */
template <class Walker, class... Args>
std::vector<SimResult>
runLockstep(const std::vector<MachineConfig> &machines,
            const Args &...args)
{
    if (machines.empty())
        return {};
    const LanePlan plan = planLanes(machines);
    return LockstepEngine<Walker>(plan, args...).run();
}

} // namespace

std::vector<SimResult>
lockstepConventional(const Module &module, const ConvLayout &layout,
                     const DecodedProgram &decoded,
                     const std::vector<MachineConfig> &machines,
                     const ExecTrace &trace)
{
    return runLockstep<ConvFetchWalker>(machines, module, layout, decoded,
                                        trace);
}

std::vector<SimResult>
lockstepBlockStructured(const BsaModule &bsa,
                        const DecodedProgram &decoded,
                        const std::vector<MachineConfig> &machines,
                        const ExecTrace &trace)
{
    return runLockstep<BsaFetchWalker>(machines, bsa, decoded, trace);
}

} // namespace bsisa
