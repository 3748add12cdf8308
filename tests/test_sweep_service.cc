/**
 * @file
 * Process-level crash-resume test of the sweep service, driving the
 * real bsisa-sweep binary (path injected as BSISA_SWEEP_BIN).
 *
 * The property under test is the service's headline guarantee: a
 * `kill -9` of a sweep mid-grid costs nothing but the units it had
 * not yet published.  Concretely:
 *
 *   1. `bsisa-sweep run` is started with BSISA_SWEEP_STALL_AFTER=3,
 *      which parks it forever right after its third published
 *      record — a deterministic mid-grid checkpoint, writer lock
 *      held.  A second run on that store fails, naming the parked
 *      run's pid.
 *   2. The test SIGKILLs the parked run: on disk are three intact
 *      frames in the log and a writer.lock naming a dead pid, whose
 *      lock the kernel dropped with the process.
 *   3. A fresh run on the same store must (a) take the writer lock,
 *      (b) execute exactly total-3 units — the three stored ones
 *      count as warm, none re-executed — and complete.
 *   4. Its compacted snapshot is byte-identical to that of an
 *      uninterrupted run in a clean directory: the crash left no
 *      trace in the final artifact.
 *
 * Traces are shared through one BSISA_TRACE_DIR (BSISA_SWEEP_TRACE_DIR,
 * emptied once per test program) so the resumed and reference runs
 * replay the same captures (and run fast); ctest then lists that
 * store with `bsisa-tracedump --list`.
 *
 * The test runs at BSISA_JOBS=1 and at BSISA_JOBS=4.  A run simulates
 * its plan as one PairSweep and appends each unit's record, under one
 * mutex, once both of its batches finish; the stall parks inside that
 * mutex, so no other worker publishes a fourth.  At one job the kill
 * lands while the second benchmark is still to run; at four, both
 * benchmarks' batches run at once, and the kill lands with units of
 * either still unpublished.
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

struct RunReport
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
    static void
    SetUpTestSuite()
    {
        std::error_code ec;
        std::filesystem::remove_all(BSISA_SWEEP_TRACE_DIR, ec);
    }

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
        // 2 benchmarks x 4 grid points = 8 units: per benchmark one
        // 4-lane conventional and one 4-lane block-structured batch.
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(root, ec);
    }

    /** Spawn `bsisa-sweep run` on @p storeDir, at BSISA_JOBS=@p jobs
     *  when given; stderr to a file. */
    pid_t
    spawnRun(const std::string &storeDir, const char *stallAfter,
             const std::string &errPath, const char *jobs = nullptr)
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
        ::setenv("BSISA_TRACE_DIR", BSISA_SWEEP_TRACE_DIR, 1);
        if (jobs)
            ::setenv("BSISA_JOBS", jobs, 1);
        if (stallAfter)
            ::setenv("BSISA_SWEEP_STALL_AFTER", stallAfter, 1);
        else
            ::unsetenv("BSISA_SWEEP_STALL_AFTER");
        ::execl(BSISA_SWEEP_BIN, BSISA_SWEEP_BIN, "run",
                specPath.c_str(), "--store", storeDir.c_str(),
                (char *)nullptr);
        ::_exit(127);
    }

    /** Wait for @p pid and parse its outcome line from @p errPath. */
    RunReport
    reapRun(pid_t pid, const std::string &errPath)
    {
        RunReport report;
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
                            "sweep: units=%zu executed=%zu warm=%zu",
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

    void sigkillResumesWithoutRework(const char *jobs);

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

/** The crash-resume property with every run at BSISA_JOBS=@p jobs. */
void
SweepServiceTest::sigkillResumesWithoutRework(const char *jobs)
{
    const std::string crashed = root + "/store-crashed";
    const std::string clean = root + "/store-clean";

    // Phase 1: park a run right after its third published record.
    // While it lives, a second run on its store is refused.
    const pid_t stalled =
        spawnRun(crashed, "3", root + "/stalled.err", jobs);
    ASSERT_GT(stalled, 0);
    ASSERT_TRUE(waitForRecords(crashed, 3))
        << "stalled run never reached its checkpoint";
    const pid_t second =
        spawnRun(crashed, nullptr, root + "/second.err", jobs);
    ASSERT_GT(second, 0);
    const RunReport secondReport = reapRun(second, root + "/second.err");
    EXPECT_EQ(secondReport.exitStatus, 1);
    EXPECT_EQ(secondReport.executed, 0u);
    EXPECT_NE(readFileBytes(root + "/second.err")
                  .find("has a live writer, pid " +
                        std::to_string(stalled)),
              std::string::npos)
        << readFileBytes(root + "/second.err");

    // SIGKILL the parked run: the log holds its three records, and
    // the writer lock names a pid that is now dead.
    ASSERT_EQ(::kill(stalled, SIGKILL), 0);
    const RunReport killedReport =
        reapRun(stalled, root + "/stalled.err");
    EXPECT_TRUE(killedReport.signaled);
    {
        ResultStore probe(crashed);
        EXPECT_EQ(probe.refresh().records, 3u);
        EXPECT_EQ(leaseHolderPid(probe.lockPath()),
                  std::uint64_t(stalled));
        EXPECT_FALSE(processAlive(std::uint64_t(stalled)));
    }

    // Phase 2: a fresh run resumes — takes the dropped lock, counts
    // the three stored units as warm, executes exactly the other
    // five, completes and compacts.
    const pid_t resumed =
        spawnRun(crashed, nullptr, root + "/resumed.err", jobs);
    ASSERT_GT(resumed, 0);
    const RunReport report = reapRun(resumed, root + "/resumed.err");
    EXPECT_FALSE(report.signaled);
    EXPECT_EQ(report.exitStatus, 0);
    EXPECT_EQ(report.units, 8u);
    EXPECT_EQ(report.warm, 3u);
    EXPECT_EQ(report.executed, 5u);
    EXPECT_FALSE(std::filesystem::exists(crashed + "/writer.lock"));

    // Phase 3: an uninterrupted reference run in a clean store.
    const pid_t reference =
        spawnRun(clean, nullptr, root + "/clean.err", jobs);
    ASSERT_GT(reference, 0);
    const RunReport cleanReport =
        reapRun(reference, root + "/clean.err");
    EXPECT_EQ(cleanReport.exitStatus, 0);
    EXPECT_EQ(cleanReport.executed, 8u);

    // Phase 4: the crashed-and-resumed store compacted to the same
    // bytes as the never-crashed one.
    const std::string snapA =
        readFileBytes(crashed + "/snapshot.bsr");
    const std::string snapB = readFileBytes(clean + "/snapshot.bsr");
    ASSERT_FALSE(snapA.empty());
    EXPECT_EQ(snapA, snapB);
}

// One job: batches run one at a time, benchmark by benchmark, so
// the kill lands among the first benchmark's four records.
TEST_F(SweepServiceTest, SigkillMidGridResumesWithoutRework)
{
    sigkillResumesWithoutRework("1");
}

// Four jobs: all four batches run at once, and records arrive in
// completion order from several workers; the kill still finds exactly
// three on disk.
TEST_F(SweepServiceTest, SigkillAtFourJobsResumesWithoutRework)
{
    sigkillResumesWithoutRework("4");
}

// A corrupt plan marker (a count the file does not hold, or a
// truncated key list) reads as absent: `status` skips it, and a run
// rebuilds the plan, finds every unit stored and rewrites the marker.
// Nothing is sized from the declared count, so a huge one cannot
// abort either of them.
TEST_F(SweepServiceTest, CorruptPlanMarkerReadsAsAbsent)
{
    const std::string store = root + "/store";
    const pid_t first = spawnRun(store, nullptr, root + "/first.err");
    ASSERT_GT(first, 0);
    ASSERT_EQ(reapRun(first, root + "/first.err").executed, 8u);

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
        EXPECT_TRUE(printSweepStatus(status, store));
        EXPECT_EQ(status.str().find("plan: "), std::string::npos)
            << status.str();

        const pid_t again = spawnRun(store, nullptr, root + "/again.err");
        ASSERT_GT(again, 0);
        const RunReport report = reapRun(again, root + "/again.err");
        EXPECT_FALSE(report.signaled);
        EXPECT_EQ(report.exitStatus, 0);
        EXPECT_EQ(report.units, 8u);
        EXPECT_EQ(report.warm, 8u);
        EXPECT_EQ(report.executed, 0u);
        EXPECT_EQ(readFileBytes(marker), valid);
    }
}

// A lease whose pid line holds no pid a process can have names no
// pid, and like any file no descriptor holds it does not lock.  Both
// values once read as a pid the liveness probe (signal 0) finds alive:
// "-1" as 2^64-1, which is pid_t -1 and so every process, and
// "4294967297" as pid_t 1.  Each such lease once parked every sweep
// forever.
TEST_F(SweepServiceTest, LeaseWithImpossiblePidGoesStale)
{
    const std::string path = root + "/chunk.lease";
    for (const char *pid : {"-1", "4294967297"}) {
        SCOPED_TRACE(pid);
        std::ofstream(path) << "pid " << pid << "\n";
        EXPECT_EQ(leaseHolderPid(path), 0u);
        FileLease lease;
        EXPECT_TRUE(lease.tryAcquire(path));
        EXPECT_EQ(leaseHolderPid(path), std::uint64_t(::getpid()));
    }
}

// `status` names the writer lock's holder; a lock file without a
// holder pid says so (status once printed such a lease as held by a
// live pid 0).  A directory
// that does not exist is no store: status prints nothing and fails,
// where it once printed an all-zero table.
TEST_F(SweepServiceTest, StatusReportsWriterLock)
{
    const std::string store = root + "/store";
    std::filesystem::create_directories(store);
    const std::string lock = store + "/writer.lock";
    const auto statusOf = [&](const std::string &dir) {
        std::ostringstream status;
        EXPECT_TRUE(printSweepStatus(status, dir));
        return status.str();
    };
    EXPECT_NE(statusOf(store).find("writer: none\n"), std::string::npos);

    // A live pid in a file no process locks: status reports what the
    // file names, not a holder it cannot prove.
    std::ofstream(lock) << "pid " << ::getpid() << "\n";
    EXPECT_NE(statusOf(store).find("writer: writer.lock names pid " +
                                   std::to_string(::getpid()) + "\n"),
              std::string::npos)
        << statusOf(store);

    // A pid that has exited holds nothing.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    ASSERT_EQ(::waitpid(child, nullptr, 0), child);
    std::ofstream(lock) << "pid " << child << "\n";
    EXPECT_NE(statusOf(store).find("writer: writer.lock names pid " +
                                   std::to_string(child) + " (exited)\n"),
              std::string::npos)
        << statusOf(store);

    std::ofstream(lock) << "garbage\n";
    const std::string malformed = statusOf(store);
    EXPECT_NE(malformed.find("writer: writer.lock names no pid\n"),
              std::string::npos)
        << malformed;
    EXPECT_EQ(malformed.find("writer: pid"), std::string::npos)
        << malformed;

    std::ostringstream missing;
    EXPECT_FALSE(printSweepStatus(missing, root + "/no-such-store"));
    EXPECT_TRUE(missing.str().empty());
}
