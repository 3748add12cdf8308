/**
 * @file
 * Tests of the persistent content-addressed trace store.
 *
 * Five properties are pinned down:
 *   1. The on-disk round trip is bit-exact: encode + mmap-open
 *      reproduces every event, derived successor and address count,
 *      and pool address of a live capture, on all eight benchmarks;
 *      the replayed SimResult is identical; and re-encoding the
 *      opened entry reproduces its file byte for byte.
 *   2. A warm load performs zero functional executions (the
 *      interpreter-invocation counter does not move) and serves the
 *      trace straight out of the mapping.
 *   3. Every corruption class — truncation, a flipped byte in any
 *      section, a stale version, a mismatched key, an event count
 *      the section cannot hold, an event that is not its
 *      predecessor's successor — is detected with
 *      the right status, degrades to live capture with correct
 *      results, and leaves a repaired entry on disk.
 *   4. With no store configured, captureOrLoadTrace is plain
 *      captureTrace.
 *   5. Captured and warm-loaded traces both satisfy the ExecTrace
 *      span-adjacency invariant the fetch sources slice units by.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/runner.hh"
#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "sim_result_print.hh"
#include "support/digest.hh"
#include "support/varint.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
    ASSERT_TRUE(out.good());
}

void
expectSameTrace(const ExecTrace &a, const ExecTrace &b)
{
    EXPECT_EQ(a.dynOps, b.dynOps);
    EXPECT_EQ(a.dynBlocks, b.dynBlocks);
    ASSERT_EQ(a.eventCount, b.eventCount);
    ASSERT_EQ(a.memAddrCount, b.memAddrCount);
    for (std::size_t i = 0; i < a.eventCount; ++i) {
        const TraceEvent &x = a.events[i];
        const TraceEvent &y = b.events[i];
        ASSERT_EQ(x.func, y.func) << "event " << i;
        ASSERT_EQ(x.block, y.block) << "event " << i;
        ASSERT_EQ(a.nextFunc(i), b.nextFunc(i)) << "event " << i;
        ASSERT_EQ(a.nextBlock(i), b.nextBlock(i)) << "event " << i;
        ASSERT_EQ(x.memBegin, y.memBegin) << "event " << i;
        ASSERT_EQ(a.memCount(i), b.memCount(i)) << "event " << i;
        ASSERT_EQ(x.exit, y.exit) << "event " << i;
        ASSERT_EQ(x.taken, y.taken) << "event " << i;
    }
    for (std::size_t i = 0; i < a.memAddrCount; ++i)
        ASSERT_EQ(a.memAddrs[i], b.memAddrs[i]) << "addr " << i;
}

/** Edit the header of the entry in @p bytes, then recompute the
 *  event-section and header checksums, as a tool rewriting the entry
 *  consistently would. */
void
resealEntry(std::vector<std::uint8_t> &bytes,
            const std::function<void(TraceFileHeader &)> &edit = {})
{
    TraceFileHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    if (edit)
        edit(h);
    h.eventChecksum =
        fnv1a64Words(bytes.data() + sizeof(h), h.eventBytes);
    std::memcpy(bytes.data(), &h, sizeof(h));
    h.headerChecksum =
        fnv1a64(bytes.data(), offsetof(TraceFileHeader, headerChecksum));
    std::memcpy(bytes.data(), &h, sizeof(h));
}

/** ExecTrace span adjacency: each event's span starts where the
 *  previous one ended, and the last span ends at the pool size. */
void
expectAdjacentSpans(const ExecTrace &t)
{
    std::uint64_t next = 0;
    for (std::size_t i = 0; i < t.eventCount; ++i) {
        ASSERT_EQ(t.events[i].memBegin, next) << "event " << i;
        next += t.memCount(i);
    }
    EXPECT_EQ(next, t.memAddrCount);
}

class TraceStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (std::filesystem::temp_directory_path() /
               ("bsisa-test-store-" + std::to_string(::getpid())))
                  .string();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir);
        TraceStore::resetStats();
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string dir;
};

} // namespace

TEST_F(TraceStoreTest, RoundTripBitIdenticalOnAllBenchmarks)
{
    for (const SpecBenchmark &bench : specint95Suite()) {
        SCOPED_TRACE(bench.params.name);
        const Module m = generateWorkload(bench.params);
        Interp::Limits limits;
        limits.maxOps = bench.scaledBudget(4000);
        const ExecTrace live = captureTrace(m, limits);

        TraceKey key;
        key.moduleDigest = moduleDigest(m);
        key.maxOps = limits.maxOps;
        key.maxBlocks = limits.maxBlocks;
        const std::string path = dir + "/" + key.fileName();
        writeFile(path, encodeTrace(live, key));

        ExecTrace mapped;
        ASSERT_EQ(openTraceFile(path, key, mapped), TraceOpenStatus::Ok);
        EXPECT_TRUE(mapped.mapped());
        expectSameTrace(live, mapped);
        // The opened entry re-encodes to its file byte for byte: the
        // derived successors and counts write the stored ones back.
        EXPECT_EQ(encodeTrace(mapped, key), readFile(path));

        const MachineConfig machine;
        EXPECT_EQ(runConventional(m, machine, live),
                  runConventional(m, machine, mapped));
    }
}

TEST_F(TraceStoreTest, WarmLoadRunsZeroFunctionalExecutions)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t digest = moduleDigest(m);
    Interp::Limits limits;
    limits.maxOps = suite[0].scaledBudget(4000);

    const TraceStore store(dir);
    const ExecTrace cold = store.load(m, digest, limits);
    EXPECT_FALSE(cold.mapped());
    EXPECT_EQ(TraceStore::stats().coldCaptures, 1u);
    EXPECT_EQ(TraceStore::stats().warmLoads, 0u);

    const std::uint64_t before = interpInvocations();
    const ExecTrace warm = store.load(m, digest, limits);
    EXPECT_EQ(interpInvocations(), before);
    EXPECT_TRUE(warm.mapped());
    EXPECT_EQ(TraceStore::stats().warmLoads, 1u);
    EXPECT_EQ(TraceStore::stats().fallbacks, 0u);
    expectSameTrace(cold, warm);
}

TEST_F(TraceStoreTest, CapturedAndWarmTracesHaveAdjacentSpans)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t digest = moduleDigest(m);
    Interp::Limits limits;
    limits.maxOps = suite[0].scaledBudget(4000);

    const ExecTrace captured = captureTrace(m, limits);
    ASSERT_GT(captured.memAddrCount, 0u);
    expectAdjacentSpans(captured);

    const TraceStore store(dir);
    (void)store.load(m, digest, limits);  // cold: write the entry
    const ExecTrace warm = store.load(m, digest, limits);
    ASSERT_TRUE(warm.mapped());
    expectAdjacentSpans(warm);
}

TEST_F(TraceStoreTest, CorruptionMatrixFallsBackAndRepairs)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t digest = moduleDigest(m);
    Interp::Limits limits;
    limits.maxOps = suite[0].scaledBudget(4000);

    TraceKey key;
    key.moduleDigest = digest;
    key.maxOps = limits.maxOps;
    key.maxBlocks = limits.maxBlocks;

    const TraceStore store(dir);
    const std::string path = store.entryPath(key);
    const ExecTrace baseline = store.load(m, digest, limits);
    const MachineConfig machine;
    const SimResult want = runConventional(m, machine, baseline);

    const std::vector<std::uint8_t> pristine = readFile(path);
    ASSERT_GT(pristine.size(), sizeof(TraceFileHeader));
    TraceFileHeader ph;
    std::memcpy(&ph, pristine.data(), sizeof(ph));

    struct Corruption
    {
        const char *name;
        TraceOpenStatus expect;
        std::function<void(std::vector<std::uint8_t> &)> mutate;
    };
    const Corruption matrix[] = {
        {"truncated mid-header", TraceOpenStatus::BadHeader,
         [](std::vector<std::uint8_t> &b) {
             b.resize(sizeof(TraceFileHeader) / 2);
         }},
        {"truncated mid-event-section", TraceOpenStatus::BadGeometry,
         [](std::vector<std::uint8_t> &b) {
             b.resize(sizeof(TraceFileHeader) + 3);
         }},
        {"flipped header byte", TraceOpenStatus::BadHeader,
         [](std::vector<std::uint8_t> &b) {
             b[offsetof(TraceFileHeader, moduleDigest) + 2] ^= 0x40;
         }},
        {"flipped event-section byte", TraceOpenStatus::BadChecksum,
         [](std::vector<std::uint8_t> &b) {
             b[sizeof(TraceFileHeader) + 1] ^= 0x01;
         }},
        {"flipped address-pool byte", TraceOpenStatus::BadChecksum,
         [&ph](std::vector<std::uint8_t> &b) {
             b[ph.addrOffset + 5] ^= 0x80;
         }},
        {"stale format version", TraceOpenStatus::BadVersion,
         [](std::vector<std::uint8_t> &b) {
             // Bump the version and keep the header checksum valid,
             // as a real format migration would find it.
             resealEntry(b, [](TraceFileHeader &h) {
                 h.formatVersion += 1;
             });
         }},
        {"event count beyond its section", TraceOpenStatus::BadGeometry,
         [](std::vector<std::uint8_t> &b) {
             // Rejected before the decoder allocates for the count.
             resealEntry(b, [](TraceFileHeader &h) {
                 h.eventCount = std::uint64_t(1) << 33;
             });
         }},
        {"event is not its predecessor's successor",
         TraceOpenStatus::BadEventStream,
         [](std::vector<std::uint8_t> &b) {
             // Skip event 0 (four deltas, the exit byte, the address
             // count) and give event 1 a function one past event 0's
             // successor.
             const std::uint8_t *p = b.data() + sizeof(TraceFileHeader);
             const std::uint8_t *end = b.data() + b.size();
             std::uint64_t v;
             for (int field = 0; field < 4; ++field)
                 ASSERT_TRUE(getVarint(p, end, v));
             ++p;
             ASSERT_TRUE(getVarint(p, end, v));
             const std::size_t at = std::size_t(p - b.data());
             ASSERT_EQ(b[at], 0u);  // a zero delta, one byte
             b[at] = std::uint8_t(zigzagEncode(1));
             resealEntry(b);
         }},
    };

    for (const Corruption &c : matrix) {
        SCOPED_TRACE(c.name);
        std::vector<std::uint8_t> bytes = pristine;
        c.mutate(bytes);
        writeFile(path, bytes);

        ExecTrace probe;
        EXPECT_EQ(openTraceFile(path, key, probe), c.expect);

        TraceStore::resetStats();
        const ExecTrace recovered = store.load(m, digest, limits);
        EXPECT_EQ(TraceStore::stats().fallbacks, 1u);
        EXPECT_FALSE(recovered.mapped());
        expectSameTrace(baseline, recovered);
        EXPECT_EQ(want, runConventional(m, machine, recovered));

        // The bad entry was atomically rewritten: it opens clean now.
        ExecTrace repaired;
        EXPECT_EQ(openTraceFile(path, key, repaired),
                  TraceOpenStatus::Ok);
        expectSameTrace(baseline, repaired);
    }
}

TEST_F(TraceStoreTest, MismatchedKeyIsRejectedAndRepaired)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t digest = moduleDigest(m);

    Interp::Limits limitsA, limitsB;
    limitsA.maxOps = suite[0].scaledBudget(4000);
    limitsB.maxOps = limitsA.maxOps / 2;

    TraceKey keyA, keyB;
    keyA.moduleDigest = keyB.moduleDigest = digest;
    keyA.maxOps = limitsA.maxOps;
    keyB.maxOps = limitsB.maxOps;
    keyA.maxBlocks = keyB.maxBlocks = limitsA.maxBlocks;
    ASSERT_NE(keyA.fileName(), keyB.fileName());

    const TraceStore store(dir);
    (void)store.load(m, digest, limitsA);

    // Plant A's (internally consistent) entry under B's name, as if a
    // tool shuffled cache files: content addressing must catch it.
    std::error_code ec;
    std::filesystem::copy_file(store.entryPath(keyA),
                               store.entryPath(keyB), ec);
    ASSERT_FALSE(ec);

    ExecTrace probe;
    EXPECT_EQ(openTraceFile(store.entryPath(keyB), keyB, probe),
              TraceOpenStatus::BadKey);

    TraceStore::resetStats();
    const ExecTrace recovered = store.load(m, digest, limitsB);
    EXPECT_EQ(TraceStore::stats().fallbacks, 1u);
    const ExecTrace want = captureTrace(m, limitsB);
    expectSameTrace(want, recovered);

    ExecTrace repaired;
    EXPECT_EQ(openTraceFile(store.entryPath(keyB), keyB, repaired),
              TraceOpenStatus::Ok);
    expectSameTrace(want, repaired);
}

TEST_F(TraceStoreTest, DisabledStoreIsPlainCapture)
{
    ::unsetenv("BSISA_TRACE_DIR");
    EXPECT_FALSE(TraceStore::fromEnv().enabled());

    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxOps = suite[0].scaledBudget(4000);

    TraceStore::resetStats();
    const ExecTrace a = captureTrace(m, limits);
    const ExecTrace b = captureOrLoadTrace(m, limits);
    EXPECT_FALSE(b.mapped());
    expectSameTrace(a, b);

    // Disabled means *disabled*: no store traffic at all.
    EXPECT_EQ(TraceStore::stats().warmLoads, 0u);
    EXPECT_EQ(TraceStore::stats().coldCaptures, 0u);
    EXPECT_EQ(TraceStore::stats().fallbacks, 0u);
}

TEST_F(TraceStoreTest, EnvConfiguredStoreServesWarmEntries)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    Interp::Limits limits;
    limits.maxOps = suite[0].scaledBudget(4000);

    ::setenv("BSISA_TRACE_DIR", dir.c_str(), 1);
    const ExecTrace cold = captureOrLoadTrace(m, limits);
    const ExecTrace warm = captureOrLoadTrace(m, limits);
    ::unsetenv("BSISA_TRACE_DIR");

    EXPECT_FALSE(cold.mapped());
    EXPECT_TRUE(warm.mapped());
    expectSameTrace(cold, warm);
}
