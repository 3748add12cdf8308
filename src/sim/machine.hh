/**
 * @file
 * Machine configuration for the cycle-level timing models.
 *
 * Defaults reproduce the paper's processor (section 4.3): sixteen-wide
 * issue, one fetch unit (atomic block or basic block) per cycle, a
 * 32-block/512-operation instruction window, sixteen uniform pipelined
 * functional units with Table-1 latencies, a 16 KB L1 dcache and a
 * 64 KB 4-way L1 icache, both backed by perfect 6-cycle L2 caches.
 */

#ifndef BSISA_SIM_MACHINE_HH
#define BSISA_SIM_MACHINE_HH

#include <cstddef>

#include "cache/cache.hh"
#include "predict/tables.hh"

namespace bsisa
{

/**
 * SoA lane-pool layout constants (sim/lockstep.hh).
 *
 * Multi-lane pools are register-major: one row per scoreboard slot,
 * laneStride() elements long, indexed by lane.  Pool bases are
 * lanePoolAlign-aligned and strides are padded to a laneStrideMultiple
 * boundary, so every row is itself lanePoolAlign-aligned and a SIMD
 * kernel processing a row never straddles into the next one.  A
 * one-lane pipeline (the sequential simulatePipeline path) collapses
 * to stride 1 — the exact pre-batching layout, with no padding cost.
 */
constexpr std::size_t lanePoolAlign = 64;
constexpr std::size_t laneStrideMultiple =
    lanePoolAlign / sizeof(std::uint64_t);

/** Lane-row stride for @p laneCount lanes (see above). */
constexpr std::size_t
laneStride(std::size_t laneCount)
{
    return laneCount <= 1
               ? laneCount
               : (laneCount + laneStrideMultiple - 1) /
                     laneStrideMultiple * laneStrideMultiple;
}

/**
 * Which timing model consumes the fetch stream.
 *
 * Abstract is the paper's engine: uniform fully-pipelined FUs and a
 * flat instruction window (sim/pipeline.hh, sim/lockstep.hh).  Ooo is
 * the high-fidelity backend (sim/ooo/ooo.hh): ROB, RAT renaming with a
 * free list, per-class reservation stations, an LSQ with store-to-load
 * forwarding, and checkpoint recovery on redirects.  Both consume the
 * identical TimingUnit stream, so any fetch-side difference between
 * them is attributable to the backend alone.
 */
enum class TimingModel : std::uint8_t
{
    Abstract = 0,
    Ooo = 1,
};

/**
 * Structure sizes of the out-of-order backend.  Defaults are sized so
 * the 16-wide frontend is backend-limited but not starved: the ROB is
 * smaller than the abstract 512-op window, and rename/issue/commit
 * bandwidth is finite, so OoO IPC genuinely differs from the abstract
 * model on every non-trivial stream.
 */
struct OooParams
{
    /** Reorder-buffer capacity in operations (in-order commit). */
    unsigned robOps = 192;

    /** Physical register file size; must exceed numArchRegs + 1
     *  (the committed map pins one register per architectural slot
     *  plus the dump slot). */
    unsigned physRegs = 160;

    /** Reservation-station entries per functional-unit class. */
    unsigned rsPerClass = 24;

    /** Load/store-queue entries (loads and stores share the pool). */
    unsigned lsqEntries = 48;

    /** Operations committed per cycle from the ROB head. */
    unsigned commitWidth = 16;

    bool operator==(const OooParams &) const = default;
};

/** Widest issue a cycle's slot count can hold (IssueSlots keeps one
 *  uint8_t per cycle). */
constexpr unsigned maxIssueWidth = 255;

struct MachineConfig
{
    /** Maximum operations issued per cycle and per fetch unit, in
     *  [1, maxIssueWidth]. */
    unsigned issueWidth = 16;

    /** Window capacity in operations (32 blocks x 16 ops). */
    unsigned windowOps = 512;

    /** Window capacity in fetch units (atomic blocks). */
    unsigned windowUnits = 32;

    /** Pipeline stages between fetch and earliest issue. */
    unsigned frontendDepth = 3;

    /** Extra bubbles after a resolved misprediction redirect. */
    unsigned redirectPenalty = 2;

    /** Perfect-L2 access latency (both icache and dcache sides). */
    unsigned l2Latency = 6;

    CacheConfig icache{64 * 1024, 4, 64, false};
    CacheConfig dcache{16 * 1024, 4, 64, false};

    PredictorConfig predictor;

    /** Oracle branch prediction (figure 4). */
    bool perfectPrediction = false;

    /** Which backend consumes the fetch stream (spec key
     *  `timing_model`); Ooo reads the sizes below. */
    TimingModel timingModel = TimingModel::Abstract;

    OooParams ooo;

    bool operator==(const MachineConfig &) const = default;
};

/** Aggregate result of one timing simulation. */
struct SimResult
{
    std::uint64_t cycles = 0;
    std::uint64_t retiredOps = 0;
    std::uint64_t retiredUnits = 0;      //!< committed blocks
    std::uint64_t wrongPathOps = 0;      //!< issued then squashed
    std::uint64_t predictions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t trapMispredicts = 0;   //!< wrong head (direction)
    std::uint64_t faultMispredicts = 0;  //!< wrong variant
    std::uint64_t cascadeHops = 0;       //!< extra fault redirects
    /** Fetch-stall cycle breakdown. */
    std::uint64_t stallRedirect = 0;  //!< waiting on mispredict resolve
    std::uint64_t stallWindow = 0;    //!< waiting for window space
    std::uint64_t stallIcache = 0;    //!< waiting on icache fills
    /** High-water marks of instruction-window occupancy; bounded by
     *  MachineConfig::windowUnits / windowOps by construction, and
     *  cross-checked by the differential fuzzing harness. */
    std::uint64_t peakWindowUnits = 0;
    std::uint64_t peakWindowOps = 0;
    CacheStats icache;
    CacheStats dcache;

    double
    ipc() const
    {
        return cycles ? double(retiredOps) / double(cycles) : 0.0;
    }

    /** Average retired block size (figure 5). */
    double
    avgBlockSize() const
    {
        return retiredUnits ? double(retiredOps) / double(retiredUnits)
                            : 0.0;
    }

    double
    branchAccuracy() const
    {
        return predictions
                   ? 1.0 - double(mispredicts) / double(predictions)
                   : 1.0;
    }

    bool operator==(const SimResult &) const = default;
};

/** SimResult of the trace-cache-augmented machine, plus the trace
 *  cache's own hit statistics. */
struct TraceCacheResult
{
    SimResult sim;
    std::uint64_t traceHits = 0;
    std::uint64_t traceMisses = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = traceHits + traceMisses;
        return total ? double(traceHits) / double(total) : 0.0;
    }
};

} // namespace bsisa

#endif // BSISA_SIM_MACHINE_HH
