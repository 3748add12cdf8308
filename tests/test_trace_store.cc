/**
 * @file
 * Tests of the persistent content-addressed trace store.
 *
 * Seven properties are pinned down:
 *   1. The on-disk round trip is bit-exact: encode + mmap-open
 *      reproduces every event, derived successor and address count,
 *      and pool address of a live capture, on all eight benchmarks;
 *      the replayed SimResult is identical; and re-encoding the
 *      opened entry reproduces its file byte for byte.
 *   2. An entry's bytes are a function of the trace: two fresh
 *      stores capture the same benchmark into identical files.
 *   3. A warm load performs zero functional executions (the
 *      interpreter-invocation counter does not move) and serves the
 *      trace straight out of the mapping.
 *   4. Every corruption class — truncation, a flipped byte in any
 *      section, a stale version, a mismatched key, an event count
 *      the section cannot hold, a resealed event record that breaks
 *      a rule of TraceEvent or of span adjacency — is detected with
 *      the right status, degrades to live capture with correct
 *      results, and leaves a repaired entry on disk.
 *   5. With no store configured, captureOrLoadTrace is plain
 *      captureTrace.
 *   6. Captured and warm-loaded traces both satisfy the ExecTrace
 *      span-adjacency invariant the fetch sources slice units by.
 *   7. A store listing names an entry of another format version as
 *      stale, not as a live entry.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "exp/runner.hh"
#include "exp/service.hh"
#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "sim_result_print.hh"
#include "support/digest.hh"
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
        fnv1a64Words(bytes.data() + traceEventsOffset, h.eventBytes);
    std::memcpy(bytes.data(), &h, sizeof(h));
    h.headerChecksum =
        fnv1a64(bytes.data(), offsetof(TraceFileHeader, headerChecksum));
    std::memcpy(bytes.data(), &h, sizeof(h));
}

/** File offset of field @p field of event record @p i. */
std::size_t
eventField(std::size_t i, std::size_t field)
{
    return std::size_t(traceEventsOffset) + i * sizeof(TraceEvent) +
           field;
}

/** Set event record @p i's memBegin in @p bytes. */
void
setMemBegin(std::vector<std::uint8_t> &bytes, std::size_t i,
            std::uint32_t memBegin)
{
    std::memcpy(&bytes[eventField(i, offsetof(TraceEvent, memBegin))],
                &memBegin, sizeof(memBegin));
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
        // The opened entry re-encodes to its file byte for byte: its
        // mapped records and header tail write the same sections.
        EXPECT_EQ(encodeTrace(mapped, key), readFile(path));

        const MachineConfig machine;
        EXPECT_EQ(runConventional(m, machine, live),
                  runConventional(m, machine, mapped));
    }
}

TEST_F(TraceStoreTest, EntryBytesAreAFunctionOfTheTrace)
{
    // The spare field is written as zero, so two captures of one
    // benchmark into two fresh stores write identical files.
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[1].params);
    const std::uint64_t digest = moduleDigest(m);
    Interp::Limits limits;
    limits.maxOps = suite[1].scaledBudget(4000);
    const TraceKey key{digest, limits.maxOps, limits.maxBlocks};

    const TraceStore a(dir + "/a"), b(dir + "/b");
    (void)a.load(m, digest, limits);
    (void)b.load(m, digest, limits);
    EXPECT_EQ(TraceStore::stats().coldCaptures, 2u);
    const std::vector<std::uint8_t> bytes = readFile(a.entryPath(key));
    ASSERT_GT(bytes.size(), traceEventsOffset);
    EXPECT_EQ(bytes, readFile(b.entryPath(key)));
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
             b.resize(traceEventsOffset + 3);
         }},
        {"flipped header byte", TraceOpenStatus::BadHeader,
         [](std::vector<std::uint8_t> &b) {
             b[offsetof(TraceFileHeader, moduleDigest) + 2] ^= 0x40;
         }},
        {"flipped event-section byte", TraceOpenStatus::BadChecksum,
         [](std::vector<std::uint8_t> &b) {
             b[traceEventsOffset + 1] ^= 0x01;
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
             // Rejected before anything is allocated for the count.
             resealEntry(b, [](TraceFileHeader &h) {
                 h.eventCount = std::uint64_t(1) << 33;
             });
         }},
        {"event count disagrees with its section",
         TraceOpenStatus::BadGeometry,
         [](std::vector<std::uint8_t> &b) {
             resealEntry(b, [](TraceFileHeader &h) { ++h.eventCount; });
         }},
        // Resealed records, each breaking one rule of the open's
        // validation pass: what a TraceEvent may hold, then span
        // adjacency.
        {"exit kind past Halt", TraceOpenStatus::BadEventStream,
         [](std::vector<std::uint8_t> &b) {
             b[eventField(0, offsetof(TraceEvent, exit))] =
                 std::uint8_t(ExitKind::Halt) + 1;
             resealEntry(b);
         }},
        {"taken byte of 2", TraceOpenStatus::BadEventStream,
         [](std::vector<std::uint8_t> &b) {
             b[eventField(0, offsetof(TraceEvent, taken))] = 2;
             resealEntry(b);
         }},
        {"non-zero spare field", TraceOpenStatus::BadEventStream,
         [](std::vector<std::uint8_t> &b) {
             b[eventField(0, offsetof(TraceEvent, spare)) + 1] = 1;
             resealEntry(b);
         }},
        {"first memBegin past 0", TraceOpenStatus::BadEventStream,
         [](std::vector<std::uint8_t> &b) {
             setMemBegin(b, 0, 1);
             resealEntry(b);
         }},
        {"memBegin that decreases", TraceOpenStatus::BadEventStream,
         [&baseline](std::vector<std::uint8_t> &b) {
             // The event after the first one with addresses before it
             // starts one address earlier.
             std::size_t i = 1;
             while (i < baseline.eventCount &&
                    baseline.events[i].memBegin == 0)
                 ++i;
             ASSERT_LT(i + 1, baseline.eventCount);
             setMemBegin(b, i + 1, baseline.events[i].memBegin - 1);
             resealEntry(b);
         }},
        {"last memBegin past addrCount", TraceOpenStatus::BadEventStream,
         [&baseline](std::vector<std::uint8_t> &b) {
             setMemBegin(b, baseline.eventCount - 1,
                         std::uint32_t(baseline.memAddrCount) + 1);
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

// A listed entry is live only when its header would open: another
// version's names its version, and a current one that fails its
// header checksum is corrupt.
TEST_F(TraceStoreTest, ListingNamesStaleVersionEntries)
{
    const auto suite = specint95Suite();
    const Module m = generateWorkload(suite[0].params);
    const std::uint64_t digest = moduleDigest(m);
    Interp::Limits limits;
    limits.maxOps = suite[0].scaledBudget(4000);
    const TraceKey key{digest, limits.maxOps, limits.maxBlocks};

    const TraceStore store(dir);
    (void)store.load(m, digest, limits);
    // An entry a format-1 writer left: a whole, sealed header that
    // names the old version, under a name no current key hashes to.
    std::vector<std::uint8_t> stale = readFile(store.entryPath(key));
    resealEntry(stale, [](TraceFileHeader &h) { h.formatVersion = 1; });
    writeFile(dir + "/0000000000000001.bstrace", stale);
    // A current entry with one bit of maxBlocks flipped after sealing:
    // its magic and versions pass, its header checksum does not.
    std::vector<std::uint8_t> flipped = readFile(store.entryPath(key));
    flipped[offsetof(TraceFileHeader, maxBlocks)] ^= 0x01;
    writeFile(dir + "/0000000000000002.bstrace", flipped);

    std::ostringstream listing;
    printTraceStoreListing(listing, dir);
    const std::string text = listing.str();
    EXPECT_NE(text.find("(3 entries)"), std::string::npos) << text;
    EXPECT_NE(text.find("0000000000000001  (stale version)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("0000000000000002  (corrupt header)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(key.fileName().substr(0, 16) + "  " +
                        suite[0].params.name),
              std::string::npos)
        << text;
}
