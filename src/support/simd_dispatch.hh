/**
 * @file
 * Runtime-dispatched kernels for the lockstep op-major inner loop.
 *
 * The hot core of a lockstep sweep is "advance N contiguous config
 * lanes over one decoded operation sequence": per operation, an
 * elementwise max over three lane rows (operand-ready resolution), a
 * per-lane issue-slot allocation, and an elementwise completion-time
 * writeback into the register-major scoreboard pools
 * (sim/lockstep.hh).  That whole per-unit walk is one kernel call —
 * StepOpsKernel — so an ISA-specific implementation keeps the loop
 * state in registers and the dispatch cost is one indirect call per
 * unit chunk, not per operation.
 *
 * Implementations:
 *   - scalar: portable branchless reference (simd_dispatch.cc);
 *   - avx2: 4-lanes-per-vector x86-64 kernel (simd_avx2.cc), built
 *     via the target("avx2") function attribute rather than a per-TU
 *     -mavx2 flag, so no comdat-shared inline helper is ever emitted
 *     with AVX2 codegen (safe to link into binaries that must still
 *     run on non-AVX2 hosts), and selected only when the host CPU
 *     reports AVX2.
 *
 * Contract: every implementation is bit-identical to the scalar
 * reference.  All cycle values are < 2^63 (bounded by the op budget
 * times the maximum latency), so implementations may synthesize the
 * unsigned 64-bit max from signed comparison.
 *
 * Selection: the first call to simdKernels() picks the widest
 * implementation the host supports, unless the BSISA_FORCE_SCALAR
 * environment variable is set (or the library was built with
 * BSISA_DISABLE_SIMD), which pins the scalar fallback.  simdSetMode()
 * overrides the selection at runtime (tests and benchmarks compare
 * paths in one process); simdReset() re-reads the environment.
 */

#ifndef BSISA_SUPPORT_SIMD_DISPATCH_HH
#define BSISA_SUPPORT_SIMD_DISPATCH_HH

#include <cstddef>
#include <cstdint>

#include "sim/decoded.hh"
#include "sim/pipeline.hh"

namespace bsisa
{

/**
 * One op-major batch step: everything a kernel needs to advance the
 * n <= 64 lanes of one contiguous chunk over one unit's decoded ops.
 *
 * Pool pointers are pre-offset to the chunk's first lane, so lane l
 * of the chunk is element l of a row and scoreboard slot r of a pool
 * is r * stride elements in.  missMasks holds one lane bitmask per
 * *memory* op, in op order (bit l set: lane l's access missed); the
 * cache models were already consulted when the masks were built, so
 * the kernel only applies each lane's l2Lat penalty to load ops
 * under its mask bit — branchless, no cache state in the loop.
 *
 * Per-lane arithmetic per op (must match LanePipelines::stepOneLane
 * bit for bit):
 *   ready = max(earliest[l], reg[src1][l], reg[src2][l])
 *   start = slots[l].allocate(ready)
 *   done  = start + op.latency (+ l2Lat[l] if load && miss bit l)
 *   prev[op][l] = reg[dst][l] = done
 * The unit completion max is NOT folded inside the per-op loop:
 * every done value lands in its prevDone row, so the kernel finishes
 * with one elementwise pass over those rows, maxing into unitDone
 * (whose caller-set entries are the per-lane floors) — a pass that
 * vectorizes cleanly instead of a read-modify-write per op.
 */
struct StepOpsCtx
{
    const DecodedOp *ops;            //!< the unit's decoded ops
    std::uint32_t opCount;
    const std::uint64_t *missMasks;  //!< per mem op, in op order
    IssueSlots *slots;               //!< [n] first lane's ring
    std::uint64_t *regBase;          //!< regReady slot 0, first lane
    std::uint64_t *prevBase;         //!< prevDone row 0, first lane
    const std::uint64_t *l2Lat;      //!< [n] per-lane miss penalty
    const std::uint64_t *earliest;   //!< [n] post-fetch schedule floor
    std::uint64_t *unitDone;         //!< [n] in-out completion max
    std::size_t stride;              //!< pool row stride in elements
    std::size_t n;                   //!< chunk lanes, 1..64
};

using StepOpsKernel = void (*)(const StepOpsCtx &);

/** One kernel implementation set. */
struct SimdKernels
{
    /** Implementation name ("scalar", "avx2") for reports/tests. */
    const char *name;
    StepOpsKernel stepOps;
};

enum class SimdMode
{
    Scalar,
    Avx2,
};

/** The active kernel set (selected on first use; see file comment). */
const SimdKernels &simdKernels();

/** Force a kernel set; returns false (and keeps the current set) when
 *  the requested implementation is not available on this host/build.
 *  Not thread-safe against concurrent simdKernels() users — switch
 *  between sweeps, not during one. */
bool simdSetMode(SimdMode mode);

/** Drop any override and re-read BSISA_FORCE_SCALAR. */
void simdReset();

/** The AVX2 kernel set, or nullptr when unsupported by this build or
 *  host (defined in simd_avx2.cc). */
const SimdKernels *simdAvx2Kernels();

/** The scalar reference kernel, callable directly: vector kernels
 *  delegate narrow batches (below one vector of lanes) to it, where
 *  nothing vectorizes and its unrolled 2- to 4-lane clones measured
 *  as fast or faster (simd_avx2.cc); the fused cross-group batches
 *  (sim/lockstep.cc) make sub-vector widths rare anyway. */
void simdScalarStepOps(const StepOpsCtx &ctx);

} // namespace bsisa

#endif // BSISA_SUPPORT_SIMD_DISPATCH_HH
