/**
 * @file
 * Tests of the pre-decoded program metadata and the zero-copy replay
 * hot path built on it.
 *
 * Three properties are pinned down:
 *   1. DecodedOp/DecodedUnit records agree field-for-field with the
 *      Operation properties they cache (including the fault masks of
 *      atomic blocks).
 *   2. Every timing model produces a bit-identical SimResult whether
 *      it is run through the Interp::Limits entry points (one
 *      interpreter run, captured then replayed) or over a trace
 *      captured up front, across all eight benchmarks.
 *   3. The replay hot path is allocation-free in the steady state: a
 *      4x-longer replay performs exactly as many heap allocations as
 *      a short one (all allocations are construction/warmup), i.e.
 *      zero allocations per committed block.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include <unistd.h>

#include "cache/trace_cache.hh"
#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/decoded.hh"
#include "sim/fetch_outcome.hh"
#include "sim/pipeline.hh"
#include "sim/trace_store.hh"
#include "sim_result_print.hh"
#include "workloads/specmix.hh"

namespace
{

/** Global heap-allocation counter for the steady-state guard. */
std::atomic<std::uint64_t> allocCount{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace bsisa;

namespace
{

Interp::Limits
testLimits(const SpecBenchmark &bench)
{
    Interp::Limits limits;
    limits.maxOps = bench.scaledBudget(4000);
    return limits;
}

/** Check one decoded op against the Operation it caches. */
void
expectDecodesOp(const DecodedOp &dop, const Operation &op)
{
    const unsigned nsrc = numSources(op.op);
    EXPECT_EQ(dop.srcCount, nsrc);
    EXPECT_EQ(dop.src1, nsrc >= 1 ? op.src1 : regZero);
    EXPECT_EQ(dop.src2, nsrc >= 2 ? op.src2 : regZero);
    EXPECT_EQ(dop.dst, hasDest(op.op) ? op.dst : regDump);
    EXPECT_EQ(dop.latency, op.latency());
    EXPECT_EQ((dop.flags & opIsMem) != 0,
              op.op == Opcode::Ld || op.op == Opcode::St);
    EXPECT_EQ((dop.flags & opIsLoad) != 0, op.op == Opcode::Ld);
    EXPECT_EQ((dop.flags & opIsFault) != 0, op.op == Opcode::Fault);
}

} // namespace

TEST(Decoded, ModuleRecordsMatchOperations)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const DecodedProgram decoded = DecodedProgram::forModule(m);

    for (FuncId f = 0; f < m.functions.size(); ++f) {
        const Function &fn = m.functions[f];
        for (BlockId b = 0; b < fn.blocks.size(); ++b) {
            const Block &blk = fn.blocks[b];
            const DecodedUnit &du = decoded.unit(f, b);
            ASSERT_EQ(du.opCount, blk.ops.size());
            EXPECT_EQ(du.sizeBytes, blk.ops.size() * opBytes);
            const DecodedOp *dops = decoded.ops(du);
            for (std::size_t i = 0; i < blk.ops.size(); ++i)
                expectDecodesOp(dops[i], blk.ops[i]);
        }
    }
}

TEST(Decoded, BsaRecordsMatchAtomicBlocks)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[1].params);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);
    const DecodedProgram decoded = DecodedProgram::forBsa(bsa);

    bool saw_fault = false;
    for (AtomicBlockId id = 0; id < bsa.blocks.size(); ++id) {
        const AtomicBlock &blk = bsa.blocks[id];
        const DecodedUnit &du = decoded.unit(id);
        ASSERT_EQ(du.opCount, blk.ops.size());
        EXPECT_EQ(du.sizeBytes, blk.sizeBytes());
        EXPECT_EQ(du.faultCount, blk.numFaults);
        // One trap merge edge per fault op, in constituent order.
        EXPECT_EQ(std::popcount(du.trapMask), int(blk.numFaults));
        const DecodedOp *dops = decoded.ops(du);
        const DecodedFault *faults = decoded.faults(du);
        for (std::size_t i = 0; i < blk.ops.size(); ++i)
            expectDecodesOp(dops[i], blk.ops[i]);
        for (unsigned k = 0; k < du.faultCount; ++k) {
            saw_fault = true;
            ASSERT_LT(faults[k].opIdx, du.opCount);
            EXPECT_NE(dops[faults[k].opIdx].flags & opIsFault, 0);
            EXPECT_EQ(faults[k].target,
                      blk.ops[faults[k].opIdx].target0);
            // dirMask bit k is the merged direction of trap k.
            EXPECT_EQ((du.dirMask >> k) & 1,
                      blk.dirs[k] ? 1u : 0u);
        }
    }
    EXPECT_TRUE(saw_fault);  // enlargement produced fault merges
}

TEST(Decoded, ReplayMatchesInterpOnAllBenchmarks)
{
    for (const SpecBenchmark &bench : specint95Suite()) {
        SCOPED_TRACE(bench.params.name);
        const Module m = generateWorkload(bench.params);
        const Interp::Limits limits = testLimits(bench);
        const ExecTrace trace = captureTrace(m, limits);
        MachineConfig machine;

        EXPECT_EQ(runConventional(m, machine, limits),
                  runConventional(m, machine, trace));

        BsaModule bsa =
            enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
        layoutBsaModule(bsa);
        EXPECT_EQ(runBlockStructured(bsa, machine, limits),
                  runBlockStructured(bsa, machine, trace));

        const TraceCacheConfig tc;
        const TraceCacheResult live =
            runTraceCache(m, machine, tc, limits);
        const TraceCacheResult replay =
            runTraceCache(m, machine, tc, trace);
        EXPECT_EQ(live.sim, replay.sim);
        EXPECT_EQ(live.traceHits, replay.traceHits);
        EXPECT_EQ(live.traceMisses, replay.traceMisses);
    }
}

TEST(Decoded, ReplaySteadyStateIsAllocationFree)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);

    Interp::Limits short_lim, long_lim;
    short_lim.maxOps = suite[0].scaledBudget(4000);
    long_lim.maxOps = short_lim.maxOps * 4;
    const ExecTrace short_trace = captureTrace(m, short_lim);
    const ExecTrace long_trace = captureTrace(m, long_lim);
    ASSERT_GT(long_trace.eventCount, short_trace.eventCount);

    MachineConfig machine;
    const ConvLayout layout(m);
    const DecodedProgram decoded = DecodedProgram::forModule(m);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);
    const DecodedProgram bsaDecoded = DecodedProgram::forBsa(bsa);

    // Allocations during simulatePipeline only: sources (and their
    // decoded programs) are constructed outside the measured region,
    // so any remaining count is SchedState warmup — identical for
    // both trace lengths iff the per-block path never allocates.
    auto conv_allocs = [&](const ExecTrace &t) {
        ConvFetchSource source(m, layout, machine, t, decoded);
        const std::uint64_t before =
            allocCount.load(std::memory_order_relaxed);
        simulatePipeline(source, machine);
        return allocCount.load(std::memory_order_relaxed) - before;
    };
    auto bsa_allocs = [&](const ExecTrace &t) {
        BsaFetchSource source(bsa, machine, t, bsaDecoded);
        const std::uint64_t before =
            allocCount.load(std::memory_order_relaxed);
        simulatePipeline(source, machine);
        return allocCount.load(std::memory_order_relaxed) - before;
    };

    EXPECT_EQ(conv_allocs(long_trace), conv_allocs(short_trace));
    EXPECT_EQ(bsa_allocs(long_trace), bsa_allocs(short_trace));
}

TEST(Decoded, LockstepSteadyStateIsAllocationFree)
{
    // The batched walk shares one decode and one trace mapping across
    // all lanes, and its per-event path must stay allocation-free: a
    // 4x-longer replay of the same batch performs exactly as many
    // heap allocations as a short one (all setup), i.e. zero
    // allocations per event per lane.  The long replay spans several
    // fetch-outcome capture windows, so starting a window must not
    // allocate either.
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);

    Interp::Limits short_lim, long_lim;
    short_lim.maxOps = suite[0].scaledBudget(4000);
    long_lim.maxOps = short_lim.maxOps * 4;
    const ExecTrace short_trace = captureTrace(m, short_lim);
    const ExecTrace long_trace = captureTrace(m, long_lim);
    ASSERT_GT(long_trace.eventCount, short_trace.eventCount);
    ASSERT_GT(long_trace.eventCount, 2 * fetchCaptureWindow);

    std::vector<MachineConfig> grid(4);
    grid[1].issueWidth = 8;
    grid[2].perfectPrediction = true;
    grid[3].icache.sizeBytes = 16 * 1024;

    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);

    auto conv_allocs = [&](const ExecTrace &t) {
        const std::uint64_t before =
            allocCount.load(std::memory_order_relaxed);
        runConventionalBatch(m, grid, t);
        return allocCount.load(std::memory_order_relaxed) - before;
    };
    auto bsa_allocs = [&](const ExecTrace &t) {
        const std::uint64_t before =
            allocCount.load(std::memory_order_relaxed);
        runBlockStructuredBatch(bsa, grid, t);
        return allocCount.load(std::memory_order_relaxed) - before;
    };

    EXPECT_EQ(conv_allocs(long_trace), conv_allocs(short_trace));
    EXPECT_EQ(bsa_allocs(long_trace), bsa_allocs(short_trace));
}

TEST(Decoded, MmapReplaySteadyStateIsAllocationFree)
{
    // Same guard as above, but the committed streams come from the
    // persistent store: the event array is decoded at open and the
    // address pool is a zero-copy span into the mapped file, so the
    // per-block path must stay allocation-free over mmap-ed memory
    // exactly as it does over captured vectors.
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t digest = moduleDigest(m);

    Interp::Limits short_lim, long_lim;
    short_lim.maxOps = suite[0].scaledBudget(4000);
    long_lim.maxOps = short_lim.maxOps * 4;

    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("bsisa-test-decoded-" + std::to_string(::getpid())))
            .string();
    const TraceStore store(dir);
    (void)store.load(m, digest, short_lim);  // cold: write entries
    (void)store.load(m, digest, long_lim);
    const ExecTrace short_trace = store.load(m, digest, short_lim);
    const ExecTrace long_trace = store.load(m, digest, long_lim);
    ASSERT_TRUE(short_trace.mapped());
    ASSERT_TRUE(long_trace.mapped());
    ASSERT_GT(long_trace.eventCount, short_trace.eventCount);

    MachineConfig machine;
    const ConvLayout layout(m);
    const DecodedProgram decoded = DecodedProgram::forModule(m);
    BsaModule bsa = enlargeModule(m, EnlargeConfig{}, nullptr, nullptr);
    layoutBsaModule(bsa);
    const DecodedProgram bsaDecoded = DecodedProgram::forBsa(bsa);

    auto conv_allocs = [&](const ExecTrace &t) {
        ConvFetchSource source(m, layout, machine, t, decoded);
        const std::uint64_t before =
            allocCount.load(std::memory_order_relaxed);
        simulatePipeline(source, machine);
        return allocCount.load(std::memory_order_relaxed) - before;
    };
    auto bsa_allocs = [&](const ExecTrace &t) {
        BsaFetchSource source(bsa, machine, t, bsaDecoded);
        const std::uint64_t before =
            allocCount.load(std::memory_order_relaxed);
        simulatePipeline(source, machine);
        return allocCount.load(std::memory_order_relaxed) - before;
    };

    EXPECT_EQ(conv_allocs(long_trace), conv_allocs(short_trace));
    EXPECT_EQ(bsa_allocs(long_trace), bsa_allocs(short_trace));

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}
