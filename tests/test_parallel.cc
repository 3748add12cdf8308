/**
 * @file
 * Parallel-runner tests: parallelFor correctness and — the property
 * the figure drivers rely on — byte-identical driver output for any
 * BSISA_JOBS worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "child_process.hh"
#include "exp/figures.hh"
#include "support/parallel.hh"

using namespace bsisa;

namespace
{

/** Scoped env override (restores the prior value on destruction). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *old = ::getenv(name);
        if (old) {
            hadOld = true;
            oldValue = old;
        }
        ::setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (hadOld)
            ::setenv(name, oldValue.c_str(), 1);
        else
            ::unsetenv(name);
    }

  private:
    const char *name;
    bool hadOld = false;
    std::string oldValue;
};

} // namespace

TEST(Parallel, JobsFromEnv)
{
    {
        ScopedEnv env("BSISA_JOBS", "3");
        EXPECT_EQ(parallelJobs(), 3u);
    }
    {
        ScopedEnv env("BSISA_JOBS", "0");
        EXPECT_EQ(parallelJobs(), 1u);  // 0 means "one worker"
    }
    ::unsetenv("BSISA_JOBS");
    EXPECT_GE(parallelJobs(), 1u);
}

TEST(Parallel, EveryIndexExactlyOnce)
{
    ScopedEnv env("BSISA_JOBS", "8");
    const std::size_t n = 1000;
    std::vector<std::atomic<unsigned>> hits(n);
    parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << i;
}

TEST(Parallel, EmptyAndSingle)
{
    parallelFor(0, [&](std::size_t) { FAIL(); });
    unsigned calls = 0;
    parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1u);
}

TEST(Parallel, ResultsLandInOwnSlots)
{
    ScopedEnv env("BSISA_JOBS", "7");
    const std::size_t n = 513;
    std::vector<std::size_t> out(n, ~std::size_t(0));
    parallelFor(n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, ChunkedEveryIndexExactlyOnce)
{
    // Chunked claiming must still visit every index exactly once, for
    // chunk sizes that divide n, don't divide n, exceed n, and the
    // degenerate chunk of 1 (equivalent to the per-index claim).
    ScopedEnv env("BSISA_JOBS", "8");
    const std::size_t n = 1000;
    for (std::size_t chunk : {std::size_t(1), std::size_t(3),
                              std::size_t(64), std::size_t(999),
                              std::size_t(4096)}) {
        std::vector<std::atomic<unsigned>> hits(n);
        parallelForChunked(n, chunk,
                           [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1u)
                << "chunk=" << chunk << " i=" << i;
    }
}

TEST(Parallel, ChunkedResultsDeterministicAcrossChunkAndJobs)
{
    // The determinism contract: results written to caller-owned slots
    // are identical for any (chunk, jobs) combination, because every
    // index runs exactly once regardless of claim granularity.
    const std::size_t n = 777;
    std::vector<std::uint64_t> reference(n);
    for (std::size_t i = 0; i < n; ++i)
        reference[i] = i * 2654435761u;

    for (const char *jobs : {"1", "3", "8"}) {
        ScopedEnv env("BSISA_JOBS", jobs);
        for (std::size_t chunk : {std::size_t(0), std::size_t(1),
                                  std::size_t(5), std::size_t(900)}) {
            std::vector<std::uint64_t> out(n, 0);
            parallelForChunked(n, chunk, [&](std::size_t i) {
                out[i] = i * 2654435761u;
            });
            EXPECT_EQ(out, reference)
                << "jobs=" << jobs << " chunk=" << chunk;
        }
    }
}

TEST(Parallel, ChunkedClaimsAreContiguousRanges)
{
    // Each CAS claims a run of `chunk` consecutive indices; observe
    // the claim granularity by recording which thread ran each index
    // and checking every aligned chunk was executed by one thread.
    ScopedEnv env("BSISA_JOBS", "4");
    const std::size_t n = 512;
    const std::size_t chunk = 16;
    std::vector<std::thread::id> owner(n);
    parallelForChunked(n, chunk, [&](std::size_t i) {
        owner[i] = std::this_thread::get_id();
    });
    for (std::size_t base = 0; base < n; base += chunk) {
        for (std::size_t i = base; i < base + chunk; ++i)
            EXPECT_EQ(owner[i], owner[base]) << "base=" << base;
    }
}

TEST(Parallel, FigureDriversDeterministicAcrossJobCounts)
{
    // The satellite requirement: figure drivers render byte-identical
    // tables with BSISA_JOBS=1 and BSISA_JOBS=8.  Run the cheapest
    // drivers that exercise every parallel pattern: a per-benchmark
    // fan-out (figure 3) and a trace-reusing grid (figure 6).  Each
    // leg runs in its own process, since a second leg in one process
    // would read the first leg's memoized traces and results.
    ScopedEnv scale("BSISA_SCALE", "6000");
    const auto leg = [](const char *jobs) {
        return bsisatest::runInChild([jobs] {
            ScopedEnv env("BSISA_JOBS", jobs);
            std::ostringstream os3, os6;
            runCycleComparison(os3, false);
            runIcacheSweep(os6, false);
            return std::vector<std::string>{os3.str(), os6.str()};
        });
    };
    const std::vector<std::string> serial = leg("1");
    const std::vector<std::string> parallel = leg("8");
    ASSERT_EQ(serial.size(), 2u);
    EXPECT_EQ(serial, parallel);
    EXPECT_FALSE(serial[0].empty());
    EXPECT_FALSE(serial[1].empty());
}
