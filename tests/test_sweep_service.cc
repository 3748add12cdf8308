/**
 * @file
 * Process-level crash-resume test of the sweep service, driving the
 * real bsisa-sweep binary (path injected as BSISA_SWEEP_BIN).
 *
 * The property under test is the service's headline guarantee: a
 * `kill -9` of a worker mid-grid costs nothing but the units it had
 * not yet published.  Concretely:
 *
 *   1. A worker is started with BSISA_SWEEP_STALL_AFTER=3, which
 *      parks it forever right after its third published record —
 *      a deterministic mid-grid checkpoint, lease still held.
 *   2. The test waits for the three records to land, then SIGKILLs
 *      the parked worker: on disk are three intact frames, a shard
 *      with no footer ceremony, and a lease naming a dead pid.
 *   3. A fresh worker on the same store must (a) break the dead
 *      holder's lease, (b) execute exactly total-3 units — the three
 *      stored ones count as warm, none re-executed — and complete.
 *   4. After compaction the store's snapshot is byte-identical to
 *      that of an uninterrupted run in a clean directory: the crash
 *      left no trace in the final artifact.
 *
 * Traces are shared through one BSISA_TRACE_DIR so the resumed and
 * reference runs replay the same captures (and run fast).
 *
 * The test runs at BSISA_JOBS=1 and at BSISA_JOBS=4.  A worker leases
 * a round of up to BSISA_JOBS chunks and holds each chunk's lease
 * until that chunk's last record is on disk, so the parked worker
 * holds one lease at one job and, in this 4-chunk spec, the three
 * leases of its round's unfinished chunks at four.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exp/result_store.hh"
#include "exp/service.hh"
#include "support/lockfile.hh"

using namespace bsisa;

namespace
{

struct WorkerReport
{
    int exitStatus = -1;
    bool signaled = false;
    std::size_t units = 0;
    std::size_t executed = 0;
    std::size_t warm = 0;
};

class SweepServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root = (std::filesystem::temp_directory_path() /
                ("bsisa-test-service-" + std::to_string(::getpid())))
                   .string();
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
        std::filesystem::create_directories(root);

        specPath = root + "/grid.yml";
        std::ofstream(specPath)
            << "name: crash-resume\n"
               "scale: 2000\n"
               "benchmarks: [compress, go]\n"
               "chunk_units: 2\n"
               "axes:\n"
               "  icache_kb: [16, 64]\n"
               "  history_bits: [8, 12]\n";
        // 2 benchmarks x 4 grid points = 8 units, 4 lease chunks.
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
    }

    /** Spawn `bsisa-sweep worker` on @p storeDir, at BSISA_JOBS=@p jobs
     *  when given; stderr to a file. */
    pid_t
    spawnWorker(const std::string &storeDir, const char *stallAfter,
                const std::string &errPath,
                const char *jobs = nullptr)
    {
        const pid_t pid = ::fork();
        if (pid != 0)
            return pid;
        const int err =
            ::open(errPath.c_str(),
                   O_CREAT | O_WRONLY | O_TRUNC, 0644);
        if (err >= 0) {
            ::dup2(err, 2);
            ::close(err);
        }
        ::setenv("BSISA_TRACE_DIR", (root + "/traces").c_str(), 1);
        if (jobs)
            ::setenv("BSISA_JOBS", jobs, 1);
        if (stallAfter)
            ::setenv("BSISA_SWEEP_STALL_AFTER", stallAfter, 1);
        else
            ::unsetenv("BSISA_SWEEP_STALL_AFTER");
        ::execl(BSISA_SWEEP_BIN, BSISA_SWEEP_BIN, "worker",
                specPath.c_str(), "--store", storeDir.c_str(),
                (char *)nullptr);
        ::_exit(127);
    }

    /** Wait for @p pid and parse its outcome line from @p errPath. */
    WorkerReport
    reapWorker(pid_t pid, const std::string &errPath)
    {
        WorkerReport report;
        int status = 0;
        EXPECT_EQ(::waitpid(pid, &status, 0), pid);
        report.signaled = WIFSIGNALED(status);
        report.exitStatus =
            WIFEXITED(status) ? WEXITSTATUS(status) : -1;

        std::ifstream in(errPath);
        std::string line;
        while (std::getline(in, line)) {
            std::size_t u = 0, e = 0, w = 0;
            if (std::sscanf(line.c_str(),
                            "sweep-worker: units=%zu executed=%zu "
                            "warm=%zu",
                            &u, &e, &w) == 3) {
                report.units = u;
                report.executed = e;
                report.warm = w;
            }
        }
        return report;
    }

    /** Poll @p storeDir until @p count records are on disk. */
    bool
    waitForRecords(const std::string &storeDir, std::size_t count)
    {
        ResultStore probe(storeDir);
        for (int i = 0; i < 1500; ++i) {  // <= 30 s
            if (probe.refresh().records >= count)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        return false;
    }

    void sigkillResumesWithoutRework(const char *jobs,
                                     std::size_t leasesHeld);

    std::string root;
    std::string specPath;
};

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

/** The crash-resume property with every worker at BSISA_JOBS=@p jobs;
 *  the parked worker holds @p leasesHeld leases when it dies. */
void
SweepServiceTest::sigkillResumesWithoutRework(const char *jobs,
                                              std::size_t leasesHeld)
{
    const std::string crashed = root + "/store-crashed";
    const std::string clean = root + "/store-clean";

    // Phase 1: park a worker right after its third published record,
    // then SIGKILL it — leases held, shard mid-write, pid now dead.
    const pid_t stalled =
        spawnWorker(crashed, "3", root + "/stalled.err", jobs);
    ASSERT_GT(stalled, 0);
    ASSERT_TRUE(waitForRecords(crashed, 3))
        << "stalled worker never reached its checkpoint";
    ASSERT_EQ(::kill(stalled, SIGKILL), 0);
    WorkerReport killedReport =
        reapWorker(stalled, root + "/stalled.err");
    EXPECT_TRUE(killedReport.signaled);

    {
        ResultStore probe(crashed);
        EXPECT_EQ(probe.refresh().records, 3u);
        // The dead worker's leases are still on disk.
        std::size_t leases = 0;
        for (const auto &de :
             std::filesystem::directory_iterator(crashed))
            if (de.path().extension() == ".lease")
                ++leases;
        EXPECT_EQ(leases, leasesHeld);
    }

    // Phase 2: a fresh worker resumes — breaks the stale leases,
    // counts the three stored units as warm, executes exactly the
    // other five, and completes.
    const pid_t resumed =
        spawnWorker(crashed, nullptr, root + "/resumed.err", jobs);
    ASSERT_GT(resumed, 0);
    const WorkerReport report =
        reapWorker(resumed, root + "/resumed.err");
    EXPECT_FALSE(report.signaled);
    EXPECT_EQ(report.exitStatus, 0);
    EXPECT_EQ(report.units, 8u);
    EXPECT_EQ(report.warm, 3u);
    EXPECT_EQ(report.executed, 5u);

    // Phase 3: an uninterrupted reference run in a clean store.
    const pid_t reference =
        spawnWorker(clean, nullptr, root + "/clean.err", jobs);
    ASSERT_GT(reference, 0);
    const WorkerReport cleanReport =
        reapWorker(reference, root + "/clean.err");
    EXPECT_EQ(cleanReport.exitStatus, 0);
    EXPECT_EQ(cleanReport.executed, 8u);

    // Phase 4: compacted, the crashed-and-resumed store is
    // byte-identical to the never-crashed one.
    {
        ResultStore a(crashed);
        ASSERT_TRUE(a.compact());
        ResultStore b(clean);
        ASSERT_TRUE(b.compact());
    }
    const std::string snapA =
        readFileBytes(crashed + "/snapshot.bsr");
    const std::string snapB = readFileBytes(clean + "/snapshot.bsr");
    ASSERT_FALSE(snapA.empty());
    EXPECT_EQ(snapA, snapB);
}

// One job: a round is one chunk, so the parked worker holds exactly
// the lease of the chunk it was publishing.
TEST_F(SweepServiceTest, SigkillMidGridResumesWithoutRework)
{
    sigkillResumesWithoutRework("1", 1);
}

// Four jobs: the round is all four chunks.  The first chunk's two
// records are published and its lease released; the parked worker
// holds the leases of the other three.
TEST_F(SweepServiceTest, SigkillMidRoundResumesWithoutRework)
{
    sigkillResumesWithoutRework("4", 3);
}

// A corrupt plan marker (a count the file does not hold, or a
// truncated key list) reads as absent: `status` skips it, and a worker
// rebuilds the plan, finds every unit stored and rewrites the marker.
// Nothing is sized from the declared count, so a huge one cannot
// abort either of them.
TEST_F(SweepServiceTest, CorruptPlanMarkerReadsAsAbsent)
{
    const std::string store = root + "/store";
    const pid_t first = spawnWorker(store, nullptr, root + "/first.err");
    ASSERT_GT(first, 0);
    ASSERT_EQ(reapWorker(first, root + "/first.err").executed, 8u);

    std::string marker;
    for (const auto &de : std::filesystem::directory_iterator(store))
        if (de.path().extension() == ".plan")
            marker = de.path().string();
    ASSERT_FALSE(marker.empty());
    const std::string valid = readFileBytes(marker);
    const std::string truncated =
        valid.substr(0, valid.find('\n', valid.find('\n') + 1) + 1);

    // A '+' on the last key: once read as the same key, now a line
    // that does not parse.
    const std::size_t lastKey = valid.rfind('\n', valid.size() - 2) + 1;
    const std::string signedKey =
        valid.substr(0, lastKey) + "+" + valid.substr(lastKey);

    for (const std::string &bad :
         {std::string("units 18446744073709551615\n"),
          std::string("units 4000000000000\n"), truncated, signedKey}) {
        SCOPED_TRACE(bad);
        std::ofstream(marker, std::ios::binary | std::ios::trunc) << bad;

        std::ostringstream status;
        printSweepStatus(status, store);
        EXPECT_EQ(status.str().find("plan: "), std::string::npos)
            << status.str();

        const pid_t again =
            spawnWorker(store, nullptr, root + "/again.err");
        ASSERT_GT(again, 0);
        const WorkerReport report =
            reapWorker(again, root + "/again.err");
        EXPECT_FALSE(report.signaled);
        EXPECT_EQ(report.exitStatus, 0);
        EXPECT_EQ(report.units, 8u);
        EXPECT_EQ(report.warm, 8u);
        EXPECT_EQ(report.executed, 0u);
        EXPECT_EQ(readFileBytes(marker), valid);
    }
}

// A lease whose pid line holds no pid a process can have is malformed:
// honoured through the grace window, then stale.  Both values once
// read as a pid the liveness probe (signal 0) finds alive: "-1" as
// 2^64-1, which is pid_t -1 and so every process, and "4294967297" as
// pid_t 1.  Each such lease parked every worker forever.
TEST_F(SweepServiceTest, LeaseWithImpossiblePidGoesStale)
{
    const std::string path = root + "/chunk.lease";
    for (const char *pid : {"-1", "4294967297"}) {
        SCOPED_TRACE(pid);
        std::ofstream(path) << "pid " << pid << "\n";
        EXPECT_EQ(leaseHolderPid(path), 0u);
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now() -
                      std::chrono::seconds(30));
        FileLease lease;
        EXPECT_TRUE(lease.tryAcquire(path));
        EXPECT_EQ(leaseHolderPid(path), std::uint64_t(::getpid()));
    }
}

// `status` names a lease without a holder pid as malformed and says
// how long workers honour it; it once printed such a lease as held by
// a live pid 0.
TEST_F(SweepServiceTest, StatusReportsMalformedLease)
{
    const std::string store = root + "/store";
    std::filesystem::create_directories(store);
    std::ofstream(store + "/chunk.lease") << "garbage\n";

    std::ostringstream status;
    printSweepStatus(status, store);
    EXPECT_NE(status.str().find(
                  "lease: chunk.lease malformed (honoured until its 5 s "
                  "grace period ends)\n"),
              std::string::npos)
        << status.str();
    EXPECT_EQ(status.str().find("holder pid"), std::string::npos)
        << status.str();
}
