/**
 * @file
 * Lockstep multi-config simulation: one decoded program and one
 * replayed event stream drive N per-config machines at once.
 *
 * The paper's figures are config sweeps — dozens of (fetch model,
 * predictor, cache, window) points over the same eight benchmarks —
 * and each point's committed stream is identical.  Replaying the
 * shared trace once per *config* leaves two kinds of redundant work on
 * the table:
 *
 *   - config-independent translation: the conventional machine's fetch
 *     units are exactly the committed basic blocks, and the
 *     block-structured machine's maximal-variant trie walk depends
 *     only on (BsaModule, stream position) — never on the predictor or
 *     the caches; and
 *   - cold rewalks of the shared data: each per-config pass streams
 *     the multi-megabyte trace and the decoded-op pools through the
 *     host caches again, even though the bytes are identical.
 *
 * A lockstep batch fixes both.  The engine walks the trace once,
 * computes each position's translation once (unit boundaries, decoded
 * slices, address spans, and — for the BSA — the maximal-variant trie
 * walk, memoised per position), and advances every config lane over the
 * still-hot unit before moving to the next event; only the genuinely
 * config-dependent work (prediction state, cache models, scheduling)
 * runs per lane.
 *
 * One engine serves both machines whose units are config-independent,
 * the conventional and the block-structured; the two entry points
 * below differ only in the fetch walker they instantiate it with.
 * Callers reach them through exp/runner.hh's batch entry points, and
 * grids through PairSweep.  The trace-cache machine has none: its unit
 * boundaries depend on each config's cache contents, so lanes would
 * share nothing but the read-only inputs, and each config runs its own
 * runTraceCache replay.
 *
 * The fetch and timing sides are further DECOUPLED (sim/
 * fetch_outcome.hh): each prediction group's fetch walker runs
 * exactly once over the trace in a pre-pass, recording compact
 * per-step outcome records (and sparse redirects) into a
 * FetchOutcomeStream one fixed capture window at a time, and the
 * timing walk consumes each window's streams as plain data.  Freed
 * from interleaving with prediction, it advances the streams by
 * minimum position and fuses lanes of DIFFERENT prediction groups
 * that commit the same unit at the same position into one full-width
 * op-major batch.  lockstepLastFetchStats() reports the batching
 * shape, memo hit rates, and the per-phase wall-clock split of the
 * latest run.
 *
 * The per-lane scheduling itself runs *op-major*: a prediction
 * group's member lanes are contiguous, and stepBatch() advances all
 * of them one operation at a time over register-major SoA pools — one
 * lane row per scoreboard slot (sim/machine.hh layout constants), so
 * the operand-ready max and the completion-time writeback of each
 * operation are contiguous elementwise passes over lane rows, issued
 * through the support/simd_dispatch.hh kernel seam (AVX2 on x86-64,
 * scalar elsewhere, selected at runtime).  Only the issue-slot search
 * and the cache-outcome resolution remain per-lane scalar code, and
 * the dcache latency adjustment is branchless over a per-op lane miss
 * mask.  Read-only state (the DecodedProgram, the ConvLayout, the
 * BsaModule and its tries, the mmap-ed trace address pool) is shared
 * by reference across every lane, never duplicated per config.
 *
 * Bit-exactness contract: the engine produces SimResults
 * bit-identical to running the same configs one at a time through
 * simulatePipeline over the machine's fetch source.  Both sides run
 * the same fetch walk (the singleton reads one walker's records
 * through WalkFetchSource), which tests/test_bsa_source.cc pins
 * independently for both machines.  simulatePipeline itself is a
 * one-lane LanePipelines walk, and the op-major batched walk performs
 * the same per-lane arithmetic in the same per-lane order (lanes never
 * interact, so the cross-lane interleaving is free), so the sequential
 * and batched paths share one arithmetic.  The contract is enforced by
 * tests/test_lockstep.cc and the fuzz harness's `lockstep` oracle,
 * across every kernel implementation (BSISA_FORCE_SCALAR selects the
 * scalar kernels).
 */

#ifndef BSISA_SIM_LOCKSTEP_HH
#define BSISA_SIM_LOCKSTEP_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "codegen/layout.hh"
#include "core/bsa.hh"
#include "sim/fetch_outcome.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/pipeline.hh"
#include "sim/trace.hh"
#include "support/aligned.hh"

namespace bsisa
{

/**
 * Structure-of-arrays pipeline state for N config lanes.
 *
 * Each lane is one complete machine — issue slots, register
 * scoreboard, instruction window, its own icache and dcache (the
 * dcache read from a shared stream until the pool's end, see
 * shareDcachePool), wrong-path rename scoreboard, cycle counters.
 * Lanes never interact: any interleaving of step()/stepBatch() calls
 * across lanes produces the same per-lane results, so batch drivers
 * are free to advance lanes event-by-event (sharing each hot unit)
 * while simulatePipeline drives a single lane to completion.
 *
 * Scoreboard pools (register-ready, wrong-path ready/stamp, previous
 * unit completion times) are register-major: row r holds slot r of
 * every lane, laneStride(laneCount) elements apart, 64-byte aligned
 * (sim/machine.hh).  stepBatch() advances a contiguous lane range
 * op-major over these rows; step() advances one lane with the same
 * arithmetic one op at a time.
 */
class LanePipelines
{
  public:
    LanePipelines(const MachineConfig *configs, std::size_t laneCount);

    std::size_t laneCount() const { return lanes.size(); }

    /**
     * Share the committed-order dcache simulation across lanes.
     *
     * Wrong-path loads never touch the dcache (they are modelled as
     * L1 hits), and every replay lane's committed mem ops consume the
     * trace's address pool in stream order — so the hit/miss outcome
     * of pool access #i is a pure function of the dcache geometry,
     * not of the lane.  Replay drivers pass the pool here and lanes
     * with identical dcache configs then share one precomputed
     * hit/miss stream instead of running one cache model each: mem
     * op m of a unit reads the stream at its pool offset,
     * (unit.memAddrs - addrs) + m.  Only ops past the pool's end (a
     * final unit truncated by the op budget reads address 0) fork the
     * lane a private cache, a copy of the stream's final state, so
     * results stay bit-identical to the unshared path.  Units must
     * slice this pool, and tile it in stream order.
     */
    void shareDcachePool(const std::uint64_t *addrs, std::size_t count);

    /** Advance @p lane alone by its next fetch unit. */
    void step(std::size_t lane, const TimingUnit &unit);

    /**
     * Advance the @p count lanes starting at @p first over the same
     * fetch unit, op-major: for each operation, all lanes' operand
     * resolution and completion writeback run as contiguous vector
     * passes over the lane rows (see class comment).  Bit-identical
     * to calling step() per lane.
     *
     * Lanes of one batch share the unit's translation but not
     * necessarily its redirect: @p redirects, when non-null, gives
     * lane first+l its own RedirectInfo (entry l), letting a driver
     * batch *across* prediction groups whose fetch streams happen to
     * coincide this step; when null every lane takes unit.redirect.
     */
    void stepBatch(std::size_t first, std::size_t count,
                   const TimingUnit &unit,
                   const RedirectInfo *redirects = nullptr);

    /** Pipeline-side result of @p lane (cycles, retired counts, stall
     *  breakdown, window high-water marks, cache stats).  Prediction
     *  statistics belong to the fetch side; the caller fills them. */
    SimResult takeResult(std::size_t lane) const;

  private:
    /** Per-lane POD counters, contiguous across lanes. */
    struct LaneState
    {
        std::uint64_t lastFetch = 0;
        std::uint64_t lastRetire = 0;
        std::uint64_t wrongGen = 0;
        /** prevDone entry count; 0 until the first unit commits. */
        std::uint32_t prevCount = 0;
        /** In-flight ring cursors (ring capacity windowUnits + 1). */
        std::uint32_t inflightHead = 0;
        std::uint32_t inflightTail = 0;
        std::uint32_t inflightOps = 0;
    };

    /** One in-flight unit: (retire cycle, op count). */
    struct Inflight
    {
        std::uint64_t retire = 0;
        std::uint32_t ops = 0;
    };

    /** Lanes advanced per op-major inner pass; bounded by the width
     *  of the per-op dcache miss mask. */
    static constexpr std::size_t chunkLanes = 64;

    // ------------------------------------------------- phase helpers
    /** Fetch phase: the shared front end (frontEndFetch) over this
     *  lane's window and scoreboards.  Returns the earliest schedule
     *  cycle (fetch + frontendDepth). */
    std::uint64_t fetchPhase(std::size_t lane, const TimingUnit &unit,
                             const RedirectInfo &redirect);

    /** Retire phase: window push, high-water marks, cycle count. */
    void retirePhase(std::size_t lane, std::uint32_t unitOps,
                     std::uint64_t unitDone);

    /** Wrong-path scheduling: frontEndFetch's wrongPath step. */
    std::uint64_t scheduleWrongPath(std::size_t lane,
                                    const DecodedOp *ops,
                                    std::uint32_t n,
                                    unsigned mustRunIdx,
                                    std::uint64_t fetchCycle,
                                    std::uint64_t squashCutoff);

    /** One lane's full step (fetch, per-op schedule, retire): step()
     *  and the batch-of-one path of stepBatch(). */
    void stepOneLane(std::size_t lane, const TimingUnit &unit,
                     const RedirectInfo &redirect);

    /** Op-major walk of @p n <= chunkLanes lanes from @p first;
     *  @p redirects as in stepBatch (relative to @p first). */
    void opMajorChunk(std::size_t first, std::size_t n,
                      const TimingUnit &unit,
                      const RedirectInfo *redirects);

    /** The one dcache rule: resolve mem-op @p memIdx of @p unit on
     *  @p lane — its shared stream's outcome bit, a fork to a private
     *  cache at the pool's end, or the private cache model. */
    bool dcacheHit(std::size_t lane, const TimingUnit &unit,
                   std::uint32_t memIdx);

    /** One distinct dcache geometry's precomputed pool walk: the
     *  per-access hit/miss stream plus the cache's final state (the
     *  seed for a lane's private tail fork, and the statistics of a
     *  lane that never forks). */
    struct DcacheStream
    {
        Cache cache;
        std::vector<std::uint8_t> hit;
    };

    /** Leave the shared dcache stream past the pool's end, in
     *  @p unit (the pool's last unit): the lane's private cache
     *  starts from the stream's final state. */
    void privatizeDcache(std::size_t lane, const TimingUnit &unit);

    /** Pool offset of @p unit's address span (shared streams only). */
    std::size_t poolIndex(const TimingUnit &unit) const
    {
        return std::size_t(unit.memAddrs - dcachePool);
    }

    /** Row of scoreboard slot @p r: element @p lane is that lane's
     *  value (register-major layout, stride elements per row). */
    std::uint64_t *regRow(RegNum r) { return regReady.data() + r * stride; }
    std::uint64_t *prevRow(std::size_t op)
    {
        return prevDone.data() + op * stride;
    }
    Inflight *inflightOf(std::size_t lane)
    {
        return inflightPool.data() + inflightBase[lane];
    }

    static constexpr std::size_t laneRegs = numArchRegs + 1;

    std::vector<MachineConfig> configs;
    std::vector<LaneState> lanes;
    std::vector<SimResult> results;
    std::vector<IssueSlots> slots;
    std::vector<Cache> icaches;
    std::vector<Cache> dcaches;

    /** Register-major scoreboard pools (see class comment): laneRegs
     *  (or prevRows) rows of stride lanes each, 64-byte aligned. */
    AlignedVec<std::uint64_t> regReady;     //!< laneRegs x stride
    AlignedVec<std::uint64_t> wrongReady;   //!< laneRegs x stride
    AlignedVec<std::uint64_t> wrongStamp;   //!< laneRegs x stride
    AlignedVec<std::uint64_t> prevDone;     //!< prevRows x stride
    std::vector<Inflight> inflightPool;
    std::vector<std::uint32_t> inflightBase;  //!< +capacity sentinel
    /** Lane-row stride (laneStride(laneCount), sim/machine.hh). */
    std::size_t stride = 0;
    /** prevDone row count (max windowOps across lanes). */
    std::size_t prevRows = 0;

    /** Per-lane dcache-miss latency penalty (branchless adjust). */
    std::vector<std::uint64_t> l2Lat;

    /** Op-major scratch: per-lane schedule floor and completion max
     *  of the current chunk, plus one lane miss-mask per mem op of
     *  the current unit (grown on demand). */
    AlignedVec<std::uint64_t> scrEarliest;
    AlignedVec<std::uint64_t> scrUnitDone;
    std::vector<std::uint64_t> scrMiss;

    /** Shared dcache streams (see shareDcachePool); a lane's stream
     *  is -1 while it runs its private cache model. */
    std::vector<DcacheStream> dcacheStreams;
    std::vector<std::int32_t> dcacheStreamOf;  //!< lane -> stream | -1
    const std::uint64_t *dcachePool = nullptr;
    std::size_t dcachePoolCount = 0;
};

/**
 * Conventional machine: advance one lane per @p machines entry over
 * one shared replayed stream.  The committed fetch units of the
 * conventional machine are config-independent (one basic block per
 * event), so every position's unit is built once and every lane
 * advances over it while it is hot.  Lanes whose prediction state is
 * identical (same predictor geometry, or oracle prediction — which
 * ignores the predictor entirely) share one ConvFetchWalker per group;
 * each group's lanes are laid out contiguously, and all groups step
 * as one op-major stepBatch per event; the committed-order dcache
 * stream is shared per distinct dcache geometry; and effectively
 * identical configs collapse to one lane whose result is replicated.
 * Only per-lane pipeline state, each lane's icache included, remains
 * per config.
 */
std::vector<SimResult>
lockstepConventional(const Module &module, const ConvLayout &layout,
                     const DecodedProgram &decoded,
                     const std::vector<MachineConfig> &machines,
                     const ExecTrace &trace);

/**
 * Block-structured machine: N lanes over one shared replayed stream
 * and one shared BsaModule/DecodedProgram.  The entire
 * config-independent translation at each stream position — the
 * maximal-variant trie walk, its variant index and compatibility, the
 * consumed event count, and the unit's pooled address span — is
 * computed once per position and memoised across every lane.  The
 * block predictor is purely stream-driven, so the whole fetch side
 * (cursor, predictor, redirect construction, unit gathering) runs
 * once per *prediction group* — lanes with identical predictor
 * geometry, or all oracle-prediction lanes together — and every lane
 * of a group steps its pipeline over the group's unit as one
 * contiguous op-major stepBatch.  The committed-order dcache stream
 * is shared per distinct dcache geometry, and effectively identical
 * configs collapse to one lane.
 */
std::vector<SimResult>
lockstepBlockStructured(const BsaModule &bsa,
                        const DecodedProgram &decoded,
                        const std::vector<MachineConfig> &machines,
                        const ExecTrace &trace);

/** Copy fetch-side prediction statistics into @p result: the one
 *  mapping from FetchWalkCounters to SimResult fields, shared by the
 *  singleton, OoO and lockstep paths. */
void fillSourceStats(SimResult &result,
                     const FetchWalkCounters &counters);

} // namespace bsisa

#endif // BSISA_SIM_LOCKSTEP_HH
