/**
 * @file
 * Scalar reference kernel and the runtime kernel selection.
 */

#include "support/simd_dispatch.hh"

#include <atomic>

#include "support/env.hh"

namespace bsisa
{

namespace
{

/** The scalar op walk with the lane count as a compile-time or
 *  runtime bound.  For the batch widths prediction-grouped sweeps
 *  produce constantly (one group = a handful of lanes), the
 *  constant-bound instantiation lets the compiler fully unroll the
 *  lane loop, so the four data-dependent issue-slot claims overlap
 *  instead of serializing behind loop control. */
template <std::size_t StaticN>
inline void
scalarStepOpsImpl(const StepOpsCtx &c)
{
    const std::size_t stride = c.stride;
    const std::size_t n = StaticN != 0 ? StaticN : c.n;
    std::uint32_t mem_idx = 0;
    for (std::uint32_t i = 0; i < c.opCount; ++i) {
        const DecodedOp &op = c.ops[i];
        const std::uint64_t *s1 = c.regBase + op.src1 * stride;
        const std::uint64_t *s2 = c.regBase + op.src2 * stride;
        std::uint64_t *dst = c.regBase + op.dst * stride;
        std::uint64_t *prev = c.prevBase + std::size_t(i) * stride;

        // Loads extend by the lane's L2 penalty under the miss mask;
        // every other op (including stores, whose cache accesses were
        // resolved into the mask builder already) has miss == 0.
        std::uint64_t miss = 0;
        if (op.flags & opIsMem) {
            if (op.flags & opIsLoad)
                miss = c.missMasks[mem_idx];
            ++mem_idx;
        }
        const std::uint64_t base_lat = op.latency;

        for (std::size_t l = 0; l < n; ++l) {
            std::uint64_t ready = s1[l] > s2[l] ? s1[l] : s2[l];
            const std::uint64_t floor = c.earliest[l];
            ready = ready > floor ? ready : floor;
            const std::uint64_t start = c.slots[l].allocate(ready);
            const std::uint64_t lat =
                base_lat +
                (c.l2Lat[l] & (std::uint64_t(0) - ((miss >> l) & 1)));
            const std::uint64_t done = start + lat;
            prev[l] = done;
            dst[l] = done;
        }
    }

    // Unit completion: one elementwise pass over the rows the loop
    // above just wrote, instead of a read-modify-write per op.
    for (std::uint32_t i = 0; i < c.opCount; ++i) {
        const std::uint64_t *row =
            c.prevBase + std::size_t(i) * stride;
        for (std::size_t l = 0; l < n; ++l) {
            c.unitDone[l] =
                c.unitDone[l] > row[l] ? c.unitDone[l] : row[l];
        }
    }
}

} // namespace

/** The semantic reference: branchless per-lane loops the optimizer
 *  can autovectorize where profitable, and the exact arithmetic every
 *  ISA kernel must reproduce.  Externally callable so vector kernels
 *  can delegate narrow batches to it. */
void
simdScalarStepOps(const StepOpsCtx &c)
{
    switch (c.n) {
      case 2:
        scalarStepOpsImpl<2>(c);
        break;
      case 3:
        scalarStepOpsImpl<3>(c);
        break;
      case 4:
        scalarStepOpsImpl<4>(c);
        break;
      default:
        scalarStepOpsImpl<0>(c);
        break;
    }
}

namespace
{

constexpr SimdKernels scalarKernels{"scalar", simdScalarStepOps};

const SimdKernels *
selectFromEnvironment()
{
    if (envSet("BSISA_FORCE_SCALAR"))
        return &scalarKernels;
    if (const SimdKernels *avx2 = simdAvx2Kernels())
        return avx2;
    return &scalarKernels;
}

std::atomic<const SimdKernels *> active{nullptr};

} // namespace

const SimdKernels &
simdKernels()
{
    const SimdKernels *k = active.load(std::memory_order_acquire);
    if (!k) {
        k = selectFromEnvironment();
        // Last selection wins; every candidate is valid, so a race
        // between first users is harmless.
        active.store(k, std::memory_order_release);
    }
    return *k;
}

bool
simdSetMode(SimdMode mode)
{
    const SimdKernels *k = nullptr;
    switch (mode) {
      case SimdMode::Scalar:
        k = &scalarKernels;
        break;
      case SimdMode::Avx2:
        k = simdAvx2Kernels();
        break;
    }
    if (!k)
        return false;
    active.store(k, std::memory_order_release);
    return true;
}

void
simdReset()
{
    active.store(selectFromEnvironment(), std::memory_order_release);
}

} // namespace bsisa
