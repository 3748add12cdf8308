/**
 * @file
 * AVX2 kernel for the lockstep op-major loop.
 *
 * Built with the target("avx2") function attribute instead of a
 * per-TU -mavx2 flag: only the functions below carry AVX2 codegen, so
 * no inline helper shared with other translation units (IssueSlots
 * methods, std::vector internals, ...) is ever emitted as a comdat
 * symbol compiled with AVX2 — the classic way a "runtime-dispatched"
 * binary still crashes on an older host when the linker happens to
 * keep the wide copy.  The kernel is selected only after
 * __builtin_cpu_supports("avx2") at runtime.
 *
 * The unsigned 64-bit max uses the signed compare + blend idiom:
 * AVX2 has no unsigned 64-bit compare, and all inputs are cycle
 * counts < 2^63 (see simd_dispatch.hh), for which signed and
 * unsigned comparison agree bit for bit.
 *
 * Rows may start at any lane offset within an aligned pool (a batch
 * chunk is a contiguous lane range, not necessarily vector-aligned),
 * so pool accesses use unaligned loads/stores; the stride padding
 * guarantees a row's tail never crosses into the next row.
 *
 * Narrow batches (fewer than 4 lanes — below one quad) delegate to
 * the scalar reference kernel.  Below one quad this kernel would run
 * only scalar tail loops plus a floor pass that the scalar kernel
 * folds into its claim loop.  Measured against the scalar kernel's
 * unrolled 2- and 3-lane clones, it was no faster at 1 and 3 lanes
 * and slower at 2; from 4 lanes up it wins (DESIGN.md decision 22).
 * The fused cross-group batches (sim/lockstep.cc) make sub-quad
 * widths rare anyway.
 */

#include "support/simd_dispatch.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(BSISA_DISABLE_SIMD)

#include <immintrin.h>

namespace bsisa
{

namespace
{

#define BSISA_AVX2 __attribute__((target("avx2")))

BSISA_AVX2 inline __m256i
maxU64(__m256i a, __m256i b)
{
    // Values < 2^63: signed compare is exact.
    return _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b));
}

BSISA_AVX2 inline __m256i
loadu(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

BSISA_AVX2 inline void
storeu(std::uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

BSISA_AVX2 void
avx2StepOps(const StepOpsCtx &c)
{
    if (c.n < 4) {
        // Below one quad nothing vectorizes; the scalar kernel's
        // unrolled clones win (see the file comment).  Full-width
        // fused chunks never hit this branch at all.
        simdScalarStepOps(c);
        return;
    }

    // Op-outer iteration: each op advances every lane before the next
    // op starts.  This was measured against a quad-outer variant
    // (whole op sequence per four-lane quad, floors and completion
    // accumulators pinned in registers): quad-outer loses ~20% —
    // dependent ops through the same register row become back-to-back
    // store-to-load forwards, and op decode repeats per quad, while
    // op-outer puts a whole row of independent lanes between a dst
    // write and the next op's src read of the same row.
    const std::size_t stride = c.stride;
    const std::size_t n = c.n;
    alignas(32) std::uint64_t ready[64];
    alignas(32) std::uint64_t lat[64];

    std::uint32_t mem_idx = 0;
    for (std::uint32_t i = 0; i < c.opCount; ++i) {
        const DecodedOp &op = c.ops[i];
        const std::uint64_t *s1 = c.regBase + op.src1 * stride;
        const std::uint64_t *s2 = c.regBase + op.src2 * stride;
        std::uint64_t *dst = c.regBase + op.dst * stride;
        std::uint64_t *prev = c.prevBase + std::size_t(i) * stride;

        std::uint64_t miss = 0;
        if (op.flags & opIsMem) {
            if (op.flags & opIsLoad)
                miss = c.missMasks[mem_idx];
            ++mem_idx;
        }

        // SIMD-assisted multi-lane claim: the operand-ready floor
        // max(src1, src2, earliest) is a pure row-wide max, computed
        // vectorized into the scratch row; the claim loop then only
        // probes each lane's per-cycle count (IssueSlots::allocate),
        // and nearly every claim takes its floor cycle on the first
        // probe.
        std::size_t l = 0;
        for (; l + 4 <= n; l += 4) {
            const __m256i floor =
                maxU64(maxU64(loadu(s1 + l), loadu(s2 + l)),
                       loadu(c.earliest + l));
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(ready + l), floor);
        }
        for (; l < n; ++l) {
            const std::uint64_t m = s1[l] > s2[l] ? s1[l] : s2[l];
            const std::uint64_t f = c.earliest[l];
            ready[l] = m > f ? m : f;
        }
        for (l = 0; l < n; ++l)
            ready[l] = c.slots[l].allocate(ready[l]);

        // Completion writeback.
        if (miss == 0) {
            const __m256i vlat = _mm256_set1_epi64x(
                static_cast<long long>(op.latency));
            for (l = 0; l + 4 <= n; l += 4) {
                const __m256i done = _mm256_add_epi64(
                    _mm256_load_si256(
                        reinterpret_cast<const __m256i *>(ready + l)),
                    vlat);
                storeu(prev + l, done);
                storeu(dst + l, done);
            }
            for (; l < n; ++l) {
                const std::uint64_t done = ready[l] + op.latency;
                prev[l] = done;
                dst[l] = done;
            }
        } else {
            const std::uint64_t base_lat = op.latency;
            for (l = 0; l < n; ++l) {
                lat[l] = base_lat +
                         (c.l2Lat[l] &
                          (std::uint64_t(0) - ((miss >> l) & 1)));
            }
            for (l = 0; l + 4 <= n; l += 4) {
                const __m256i done = _mm256_add_epi64(
                    _mm256_load_si256(
                        reinterpret_cast<const __m256i *>(ready + l)),
                    _mm256_load_si256(
                        reinterpret_cast<const __m256i *>(lat + l)));
                storeu(prev + l, done);
                storeu(dst + l, done);
            }
            for (; l < n; ++l) {
                const std::uint64_t done = ready[l] + lat[l];
                prev[l] = done;
                dst[l] = done;
            }
        }
    }

    // Unit completion: elementwise max over the just-written rows.
    for (std::size_t l = 0; l + 4 <= n; l += 4) {
        __m256i vdone = loadu(c.unitDone + l);
        for (std::uint32_t i = 0; i < c.opCount; ++i) {
            vdone = maxU64(
                vdone,
                loadu(c.prevBase + std::size_t(i) * stride + l));
        }
        storeu(c.unitDone + l, vdone);
    }
    for (std::size_t l = n & ~std::size_t(3); l < n; ++l) {
        std::uint64_t best = c.unitDone[l];
        for (std::uint32_t i = 0; i < c.opCount; ++i) {
            const std::uint64_t v =
                c.prevBase[std::size_t(i) * stride + l];
            best = best > v ? best : v;
        }
        c.unitDone[l] = best;
    }
}

#undef BSISA_AVX2

constexpr SimdKernels avx2Set{"avx2", avx2StepOps};

} // namespace

const SimdKernels *
simdAvx2Kernels()
{
    if (!__builtin_cpu_supports("avx2"))
        return nullptr;
    return &avx2Set;
}

} // namespace bsisa

#else // !x86-64 || BSISA_DISABLE_SIMD

namespace bsisa
{

const SimdKernels *
simdAvx2Kernels()
{
    return nullptr;
}

} // namespace bsisa

#endif
