/**
 * @file
 * Tests of the experiment harness and the paper's headline shapes at
 * reduced scale: figure 3 (BSA wins on most benchmarks), figure 4
 * (the gap widens with perfect prediction), figure 5 (block sizes
 * grow ~5 -> ~8+), figures 6/7 (icache sensitivity ordering).
 *
 * These use BSISA_SCALE to shrink budgets so the whole suite runs in
 * seconds; the shapes are stable at this scale.
 *
 * The SuiteCache tests come first so that, in a default run, their
 * parallel access is the process's first touch of the shared suite.
 * The SuiteMemo tests check the drivers' per-process trace and result
 * memos: warm-store traffic, keying and racing first use.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "child_process.hh"
#include "core/enlarge.hh"
#include "exp/figures.hh"
#include "ir/textform.hh"
#include "sim/tc_source.hh"
#include "sim/trace_store.hh"
#include "support/digest.hh"
#include "support/lockfile.hh"
#include "support/parallel.hh"
#include "workloads/synth.hh"

using namespace bsisa;

namespace
{

class ExpFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::setenv("BSISA_SCALE", "800", 1);
    }

    void
    TearDown() override
    {
        ::unsetenv("BSISA_SCALE");
    }
};

double
averageReduction(const std::vector<BenchOutcome> &outcomes)
{
    double sum = 0.0;
    for (const auto &o : outcomes)
        sum += o.reduction();
    return sum / double(outcomes.size());
}

const BenchOutcome &
find(const std::vector<BenchOutcome> &outcomes, const std::string &name)
{
    for (const auto &o : outcomes)
        if (o.name == name)
            return o;
    throw std::runtime_error("missing benchmark " + name);
}

/** Scoped env override (restores the prior value on destruction). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (const char *old = ::getenv(name)) {
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

/** The trace-store content keys of the suite (moduleDigest).  Store
 *  file names, result-store unit keys and the CI cache key all derive
 *  from these, so a change here is a deliberate format event. */
const std::pair<const char *, std::uint64_t> pinnedSuiteDigests[] = {
    {"compress", 0x69f779c133636d90ull}, {"gcc", 0x28aa4c889b5b4413ull},
    {"go", 0x06c9a213d1421401ull},       {"ijpeg", 0xdac31462b810f9f5ull},
    {"li", 0x2f846fd411314802ull},       {"m88ksim", 0xe5f170940a2d7cd2ull},
    {"perl", 0x62bd2e833c4b9fb2ull},     {"vortex", 0x09357d325784cc1bull},
};

/** moduleDigest of each suite benchmark generated with small-leaf
 *  inlining (the section-6 extension): bigger functions, more spills.
 *  compress and ijpeg have no call the inliner takes, so theirs equal
 *  the plain pins. */
const std::pair<const char *, std::uint64_t> pinnedInlinedDigests[] = {
    {"compress", 0x69f779c133636d90ull}, {"gcc", 0xc97298b420a28156ull},
    {"go", 0x32ae23d92d826b9aull},       {"ijpeg", 0xdac31462b810f9f5ull},
    {"li", 0x4f22cfea0b4ab431ull},       {"m88ksim", 0x44b3239f78bf3851ull},
    {"perl", 0x999d3171fe68e85aull},     {"vortex", 0xf34ed7f37b677304ull},
};

/** moduleDigest of each suite module re-split to 8-op blocks, the
 *  modules the limits ablation simulates at maxOps 8. */
const std::pair<const char *, std::uint64_t> pinnedResplit8Digests[] = {
    {"compress", 0x5643dfe54d994f3cull}, {"gcc", 0x9d92172ffba4b543ull},
    {"go", 0x2fb62f7331418863ull},       {"ijpeg", 0x3c86ec042ce5900aull},
    {"li", 0x6b8457845d471db6ull},       {"m88ksim", 0xf1dc9f65eccfd339ull},
    {"perl", 0xacf01ed2ecbdc780ull},     {"vortex", 0xd3dfda9ef61d3507ull},
};

} // namespace

TEST(SuiteCache, RacingFirstAccessMatchesFreshGeneration)
{
    const auto suite = specint95Suite();
    const std::size_t n = suite.size();
    // Four claims per benchmark, one index per claim, so several
    // workers reach each slot together.
    std::vector<const Module *> seen(4 * n);
    {
        ScopedEnv jobs("BSISA_JOBS", "4");
        parallelForChunked(seen.size(), 1, [&](std::size_t k) {
            seen[k] = &suiteModule(k % n);
        });
    }
    for (std::size_t k = 0; k < seen.size(); ++k)
        EXPECT_EQ(seen[k], seen[k % n]) << k;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(moduleToText(*seen[i]),
                  moduleToText(generateWorkload(suite[i].params)))
            << suite[i].params.name;
    }
}

TEST(SuiteCache, ModuleAddressIsStable)
{
    const std::size_t n = specint95Suite().size();
    for (std::size_t i = 0; i < n; ++i) {
        const Module *first = &suiteModule(i);
        EXPECT_EQ(suiteModuleDigest(i), suiteModuleDigest(i));
        EXPECT_EQ(&suiteModule(i), first);
    }
    EXPECT_THROW(suiteModule(n), std::out_of_range);
}

TEST(SuiteCache, DigestsArePinned)
{
    const auto suite = specint95Suite();
    ASSERT_EQ(suite.size(), std::size(pinnedSuiteDigests));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto [name, digest] = pinnedSuiteDigests[i];
        ASSERT_EQ(suite[i].params.name, name);
        EXPECT_EQ(moduleDigest(generateWorkload(suite[i].params)), digest)
            << name;
        EXPECT_EQ(suiteModuleDigest(i), digest) << name;
    }
}

TEST(SuiteCache, InlinedDigestsArePinned)
{
    const auto suite = specint95Suite();
    ASSERT_EQ(suite.size(), std::size(pinnedInlinedDigests));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto [name, digest] = pinnedInlinedDigests[i];
        ASSERT_EQ(suite[i].params.name, name);
        WorkloadParams params = suite[i].params;
        params.inlineSmallCalls = true;
        EXPECT_EQ(moduleDigest(generateWorkload(params)), digest) << name;
    }
}

TEST(SuiteCache, Resplit8DigestsArePinned)
{
    const auto suite = specint95Suite();
    ASSERT_EQ(suite.size(), std::size(pinnedResplit8Digests));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto [name, digest] = pinnedResplit8Digests[i];
        ASSERT_EQ(suite[i].params.name, name);
        Module m = suiteModule(i);
        splitOversizedBlocks(m, 8);
        EXPECT_EQ(moduleDigest(m), digest) << name;
    }
}

TEST_F(ExpFixture, ScaleDivisorFromEnv)
{
    EXPECT_EQ(scaleDivisor(), 800u);
}

TEST_F(ExpFixture, Table1PrintsAllClasses)
{
    std::ostringstream os;
    printTable1(os);
    const std::string s = os.str();
    for (const char *needle :
         {"Integer", "FP Add", "FP/INT Mul", "FP/INT Div", "Load",
          "Store", "Bit Field", "Branch"}) {
        EXPECT_NE(s.find(needle), std::string::npos) << needle;
    }
}

TEST_F(ExpFixture, Table2CountsAndBudgets)
{
    std::ostringstream os;
    const auto outcomes = printTable2(os);
    ASSERT_EQ(outcomes.size(), 8u);
    EXPECT_NE(os.str().find("103,015,025"), std::string::npos);
    // Measured dynamic ops hit the scaled budget (within one block).
    for (const auto &o : outcomes) {
        EXPECT_GE(o.dynOps, 75000u) << o.name;
        EXPECT_LE(o.dynOps, 400000u) << o.name;
    }
}

TEST_F(ExpFixture, Figure3Shape)
{
    std::ostringstream os;
    const auto outcomes = runCycleComparison(os, false);
    ASSERT_EQ(outcomes.size(), 8u);

    // Headline: the block-structured machine wins on most benchmarks
    // and by a meaningful average (the paper reports 12%).
    const double avg = averageReduction(outcomes);
    EXPECT_GT(avg, 0.05);
    EXPECT_LT(avg, 0.30);
    unsigned wins = 0;
    for (const auto &o : outcomes)
        wins += o.bsaCycles < o.convCycles;
    EXPECT_GE(wins, 6u);

    // gcc and go are the weakest cases (code duplication).
    const double gcc_red = find(outcomes, "gcc").reduction();
    const double go_red = find(outcomes, "go").reduction();
    for (const auto &o : outcomes) {
        if (o.name != "gcc" && o.name != "go") {
            EXPECT_GT(o.reduction(), go_red) << o.name;
        }
    }
    EXPECT_LT(gcc_red, avg);
    // At full scale go is a net LOSS (like the paper); at this test's
    // reduced budget the icache is not yet saturated, so just require
    // it to be far below the average.
    EXPECT_LT(go_red, 0.08);
    EXPECT_LT(go_red, avg / 2.0);
}

TEST_F(ExpFixture, Figure4PerfectPredictionWidensGap)
{
    std::ostringstream os;
    const auto real = runCycleComparison(os, false);
    const auto oracle = runCycleComparison(os, true);
    // The paper: 12% -> 19% average improvement.
    EXPECT_GT(averageReduction(oracle),
              averageReduction(real) + 0.02);
    // go flips from loss to clear win under perfect prediction.
    EXPECT_GT(find(oracle, "go").reduction(),
              find(real, "go").reduction());
    // Every benchmark is at least as fast with the oracle.
    for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_LE(oracle[i].bsaCycles, real[i].bsaCycles);
        EXPECT_LE(oracle[i].convCycles, real[i].convCycles);
    }
}

TEST_F(ExpFixture, Figure5BlockSizes)
{
    std::ostringstream os;
    const auto outcomes = runBlockSizeComparison(os);
    double conv = 0.0, bsa = 0.0;
    for (const auto &o : outcomes) {
        conv += o.convBlockSize;
        bsa += o.bsaBlockSize;
        EXPECT_GT(o.bsaBlockSize, o.convBlockSize) << o.name;
        EXPECT_LE(o.bsaBlockSize, 16.0) << o.name;
    }
    conv /= outcomes.size();
    bsa /= outcomes.size();
    // Paper: 5.2 -> 8.2.  Accept a band around that shape.
    EXPECT_GT(conv, 4.0);
    EXPECT_LT(conv, 8.5);
    EXPECT_GT(bsa, conv * 1.25);
    EXPECT_LT(bsa, conv * 2.0);
    // Half the 16-wide fetch bandwidth still unused (paper).
    EXPECT_LT(bsa, 12.0);
}

TEST_F(ExpFixture, Figures6And7IcacheShape)
{
    std::ostringstream os;
    const auto conv = runIcacheSweep(os, false);
    const auto bsa = runIcacheSweep(os, true);
    ASSERT_EQ(conv.size(), 8u);
    ASSERT_EQ(bsa.size(), 8u);

    for (std::size_t i = 0; i < conv.size(); ++i) {
        // Monotone: smaller caches never help.
        for (std::size_t k = 1; k < conv[i].relativeIncrease.size();
             ++k) {
            EXPECT_GE(conv[i].relativeIncrease[k - 1] + 1e-9,
                      conv[i].relativeIncrease[k]);
            EXPECT_GE(bsa[i].relativeIncrease[k - 1] + 1e-9,
                      bsa[i].relativeIncrease[k]);
        }
    }

    auto row = [](const std::vector<IcacheSweepRow> &rows,
                  const std::string &name) -> const IcacheSweepRow & {
        for (const auto &r : rows)
            if (r.name == name)
                return r;
        throw std::runtime_error("missing row");
    };

    // gcc and go degrade most, in BOTH ISAs, and the BSA executables
    // suffer more than the conventional ones (code duplication).
    for (const char *big : {"gcc", "go"}) {
        for (const char *small : {"compress", "li", "ijpeg"}) {
            EXPECT_GT(row(conv, big).relativeIncrease[0],
                      row(conv, small).relativeIncrease[0]);
            EXPECT_GT(row(bsa, big).relativeIncrease[0],
                      row(bsa, small).relativeIncrease[0]);
        }
        EXPECT_GT(row(bsa, big).relativeIncrease[0],
                  row(conv, big).relativeIncrease[0]);
    }

    // The small benchmarks barely notice even a 16 KB icache (paper).
    for (const char *small : {"compress", "li"}) {
        EXPECT_LT(row(conv, small).relativeIncrease[0], 0.05);
        EXPECT_LT(row(bsa, small).relativeIncrease[0], 0.08);
    }
}

TEST_F(ExpFixture, DriverOrderDoesNotChangeOutput)
{
    // perfbench permutes driver order per seed; the shared suite and
    // memos must make every driver's text independent of what ran
    // before it.  Each order runs in its own process, since in one
    // process the second order would only read the first's memos.  A
    // forked child inherits this process's memos, so the children run
    // at a scale no other test uses: their memos start empty.  Each
    // child also reports how many suite traces its first driver
    // obtained (interpreter runs plus warm store loads); 8 means none
    // came from an inherited memo.
    ScopedEnv scale("BSISA_SCALE", "7000");
    const auto order = [](bool sweepFirst) {
        return bsisatest::runInChild([sweepFirst] {
            const std::uint64_t interp0 = interpInvocations();
            const std::uint64_t warm0 = TraceStore::stats().warmLoads;
            std::ostringstream sweep, cycle;
            if (sweepFirst)
                runIcacheSweep(sweep, false);
            else
                runCycleComparison(cycle, false);
            const std::uint64_t traces =
                interpInvocations() - interp0 +
                TraceStore::stats().warmLoads - warm0;
            if (sweepFirst)
                runCycleComparison(cycle, false);
            else
                runIcacheSweep(sweep, false);
            return std::vector<std::string>{sweep.str(), cycle.str(),
                                            std::to_string(traces)};
        });
    };
    const auto sweepThenCycle = order(true);
    const auto cycleThenSweep = order(false);
    ASSERT_EQ(sweepThenCycle.size(), 3u);
    ASSERT_EQ(cycleThenSweep.size(), 3u);
    EXPECT_EQ(sweepThenCycle[2], "8");
    EXPECT_EQ(cycleThenSweep[2], "8");
    EXPECT_FALSE(sweepThenCycle[0].empty());
    EXPECT_EQ(sweepThenCycle[0], cycleThenSweep[0]);
    EXPECT_EQ(sweepThenCycle[1], cycleThenSweep[1]);
}

// ---------------------------------------------------------------------
// The per-process memos of the figure drivers (suite traces and pair
// results, exp/figures.cc) at BSISA_SCALE=6000.  Every run whose
// output or store traffic is compared happens in a forked child, so
// it starts from this process's memos, which hold no 6000-scale
// Fig. 3-7 entry: no test in this file runs one outside a child.

namespace
{

/** Table 2 and Fig. 3-7, in the order bench_paper_figures runs
 *  them. */
const struct
{
    const char *name;
    void (*run)(std::ostream &);
} paperDrivers[] = {
    {"table2", [](std::ostream &os) { printTable2(os); }},
    {"fig3", [](std::ostream &os) { runCycleComparison(os, false); }},
    {"fig4", [](std::ostream &os) { runCycleComparison(os, true); }},
    {"fig5", [](std::ostream &os) { runBlockSizeComparison(os); }},
    {"fig6", [](std::ostream &os) { runIcacheSweep(os, false); }},
    {"fig7", [](std::ostream &os) { runIcacheSweep(os, true); }},
};
constexpr std::size_t nPaperDrivers = std::size(paperDrivers);

/** Driver @p k's text, from a fresh child process. */
std::string
aloneInChild(std::size_t k)
{
    const auto out = bsisatest::runInChild([k] {
        std::ostringstream os;
        paperDrivers[k].run(os);
        return std::vector<std::string>{os.str()};
    });
    return out.empty() ? std::string() : out[0];
}

/** Scratch trace-store directory, removed on destruction. */
struct ScratchStore
{
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("bsisa-test-suite-memo-" + std::to_string(::getpid())))
            .string();

    ScratchStore() { std::filesystem::remove_all(dir); }

    ~ScratchStore()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

} // namespace

namespace
{

/** The store traffic and interpreter runs since @p before and
 *  @p interp0, as "warm=W cold=C fallback=F interp=I". */
std::string
trafficSince(const TraceStoreStats &before, std::uint64_t interp0)
{
    const TraceStoreStats after = TraceStore::stats();
    return "warm=" + std::to_string(after.warmLoads - before.warmLoads) +
           " cold=" +
           std::to_string(after.coldCaptures - before.coldCaptures) +
           " fallback=" +
           std::to_string(after.fallbacks - before.fallbacks) +
           " interp=" + std::to_string(interpInvocations() - interp0);
}

/** Run paperDrivers in @p order in a fresh child: each driver's text
 *  by driver index, then the process's traffic (trafficSince). */
std::vector<std::string>
driversInChild(const std::vector<std::size_t> &order)
{
    return bsisatest::runInChild([&order] {
        const TraceStoreStats before = TraceStore::stats();
        const std::uint64_t interp0 = interpInvocations();
        std::vector<std::string> texts(nPaperDrivers + 1);
        for (std::size_t k : order) {
            std::ostringstream os;
            paperDrivers[k].run(os);
            texts[k] = os.str();
        }
        texts.back() = trafficSince(before, interp0);
        return texts;
    });
}

/** Benchmark @p i's Table 2 entry in @p store at BSISA_SCALE=6000. */
std::string
table2EntryPath(const ScratchStore &store, std::size_t i, TraceKey &key)
{
    Interp::Limits limits;
    limits.maxOps = specint95Suite()[i].scaledBudget(6000);
    key = {suiteModuleDigest(i), limits.maxOps, limits.maxBlocks};
    return TraceStore(store.dir).entryPath(key);
}

} // namespace

// A warm trace stays resident only while a driver's sweep holds it, so
// each driver call that simulates reopens the suite's 8 entries, and
// Table 2 reads only the entries' headers.  Running 0-5 in order,
// Fig. 3, Fig. 4 and Fig. 6 simulate (Fig. 5 and Fig. 7 read their
// memoized results); starting from Fig. 7, only Fig. 7 and Fig. 4 do.
TEST(SuiteMemo, WarmDriversLoadEachTraceOncePerSimulatingDriver)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    ScopedEnv model("BSISA_TIMING_MODEL", "abstract");
    const ScratchStore store;
    ScopedEnv traceDir("BSISA_TRACE_DIR", store.dir.c_str());
    // Fill the store (one cold capture per benchmark), then run every
    // driver alone, each in a fresh process on the warm store.
    aloneInChild(0);
    std::vector<std::string> alone;
    for (std::size_t k = 0; k < nPaperDrivers; ++k)
        alone.push_back(aloneInChild(k));

    const struct
    {
        std::vector<std::size_t> order;
        const char *traffic;
    } runs[] = {
        {{0, 1, 2, 3, 4, 5}, "warm=24 cold=0 fallback=0 interp=0"},
        {{5, 3, 1, 4, 0, 2}, "warm=16 cold=0 fallback=0 interp=0"},
    };
    for (const auto &run : runs) {
        const auto out = driversInChild(run.order);
        ASSERT_EQ(out.size(), nPaperDrivers + 1);
        EXPECT_EQ(out.back(), run.traffic)
            << "order starting " << paperDrivers[run.order[0]].name;
        for (std::size_t k = 0; k < nPaperDrivers; ++k) {
            EXPECT_FALSE(alone[k].empty()) << paperDrivers[k].name;
            EXPECT_EQ(out[k], alone[k])
                << paperDrivers[k].name << " in the order starting "
                << paperDrivers[run.order[0]].name;
        }
    }
}

// Without a store a trace is kept for the process, since only a
// functional run could reproduce it: all six drivers capture the
// suite's 8 streams once.
TEST(SuiteMemo, NoStoreDriversCaptureEachTraceOnce)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    ScopedEnv model("BSISA_TIMING_MODEL", "abstract");
    const auto out = driversInChild({0, 1, 2, 3, 4, 5});
    ASSERT_EQ(out.size(), nPaperDrivers + 1);
    EXPECT_EQ(out.back(), "warm=0 cold=0 fallback=0 interp=8");
    for (std::size_t k = 0; k < nPaperDrivers; ++k)
        EXPECT_EQ(out[k], aloneInChild(k)) << paperDrivers[k].name;
}

// Table 2 needs only each entry's op count: on a warm store it reads
// the checked headers, opening no entry and running nothing.
TEST(SuiteMemo, WarmTable2ReadsOnlyEntryHeaders)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    const ScratchStore store;
    ScopedEnv traceDir("BSISA_TRACE_DIR", store.dir.c_str());
    const auto cold = driversInChild({0});
    ASSERT_EQ(cold.size(), nPaperDrivers + 1);
    EXPECT_EQ(cold.back(), "warm=0 cold=8 fallback=0 interp=8");
    const auto warm = driversInChild({0});
    ASSERT_EQ(warm.size(), nPaperDrivers + 1);
    EXPECT_EQ(warm.back(), "warm=0 cold=0 fallback=0 interp=0");
    EXPECT_FALSE(cold[0].empty());
    EXPECT_EQ(warm[0], cold[0]);
}

// The trace-cache extension and the workload report each make a pass
// of their own over the suite's events after their grid runs.  Each
// holds its traces from before the grid until that pass ends, so a
// trace is opened once per driver call, cold or warm.  (They run at
// a scale no other test uses, so a child inherits no memo entry.)
TEST(SuiteMemo, PassDriversOpenEachTraceOnce)
{
    ScopedEnv scale("BSISA_SCALE", "5000");
    ScopedEnv model("BSISA_TIMING_MODEL", "abstract");
    const ScratchStore store;
    ScopedEnv traceDir("BSISA_TRACE_DIR", store.dir.c_str());
    const auto traffic = [](void (*driver)(std::ostream &)) {
        const auto out = bsisatest::runInChild([driver] {
            const TraceStoreStats before = TraceStore::stats();
            const std::uint64_t interp0 = interpInvocations();
            std::ostringstream os;
            driver(os);
            return std::vector<std::string>{
                trafficSince(before, interp0)};
        });
        return out.empty() ? std::string() : out[0];
    };
    EXPECT_EQ(traffic(runTraceCacheComparison),
              "warm=0 cold=8 fallback=0 interp=8");
    EXPECT_EQ(traffic(runTraceCacheComparison),
              "warm=8 cold=0 fallback=0 interp=0");
    EXPECT_EQ(traffic(runWorkloadReport),
              "warm=0 cold=8 fallback=0 interp=8");
    EXPECT_EQ(traffic(runWorkloadReport),
              "warm=8 cold=0 fallback=0 interp=0");
}

// An entry whose header fails a check is loaded as a trace instead,
// which repairs it; Table 2 does not change.
TEST(SuiteMemo, Table2RepairsAnEntryWithACorruptHeader)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    const ScratchStore store;
    ScopedEnv traceDir("BSISA_TRACE_DIR", store.dir.c_str());
    const std::string text = aloneInChild(0);
    ASSERT_FALSE(text.empty());

    TraceKey key;
    const std::string path = table2EntryPath(store, 1, key);
    TraceFileHeader header;
    ASSERT_EQ(readTraceHeader(path, key, header), TraceOpenStatus::Ok);
    {
        // Flip a bit of dynOps: the header checksum no longer holds.
        std::fstream file(path,
                          std::ios::binary | std::ios::in | std::ios::out);
        header.dynOps ^= 1;
        file.write(reinterpret_cast<const char *>(&header),
                   sizeof(header));
    }
    ASSERT_EQ(readTraceHeader(path, key, header),
              TraceOpenStatus::BadHeader);

    const auto out = driversInChild({0});
    ASSERT_EQ(out.size(), nPaperDrivers + 1);
    EXPECT_EQ(out[0], text);
    EXPECT_EQ(out.back(), "warm=0 cold=0 fallback=1 interp=1");
    EXPECT_EQ(readTraceHeader(path, key, header), TraceOpenStatus::Ok);
}

TEST(SuiteMemo, ScaleAndTimingModelKeepSeparateEntries)
{
    const std::pair<const char *, const char *> runs[] = {
        {"6000", "abstract"},
        {"3000", "abstract"},
        {"6000", "ooo"},
        {"3000", "ooo"}};
    const auto fig3 = [](const std::pair<const char *, const char *> &r) {
        ScopedEnv scale("BSISA_SCALE", r.first);
        ScopedEnv model("BSISA_TIMING_MODEL", r.second);
        std::ostringstream os;
        runCycleComparison(os, false);
        return os.str();
    };
    const auto together = bsisatest::runInChild([&] {
        std::vector<std::string> out;
        for (const auto &r : runs)
            out.push_back(fig3(r));
        return out;
    });
    ASSERT_EQ(together.size(), std::size(runs));
    for (std::size_t i = 0; i < std::size(runs); ++i) {
        const auto fresh = bsisatest::runInChild(
            [&] { return std::vector<std::string>{fig3(runs[i])}; });
        ASSERT_EQ(fresh.size(), 1u);
        EXPECT_EQ(together[i], fresh[0])
            << "BSISA_SCALE=" << runs[i].first
            << " BSISA_TIMING_MODEL=" << runs[i].second;
    }
    // The four runs are distinct figures, so none could have been
    // served another's entries.
    EXPECT_EQ(std::set<std::string>(together.begin(), together.end())
                  .size(),
              std::size(runs));
}

TEST(SuiteMemo, RacingDriversMatchSerialRuns)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    ScopedEnv model("BSISA_TIMING_MODEL", "abstract");
    // Four threads race on the first use of the same traces and pair
    // results: Fig. 3 and Fig. 5 share all 16 simulations.
    const auto raced = bsisatest::runInChild([] {
        std::vector<std::string> out(4);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < out.size(); ++t) {
            threads.emplace_back([&out, t] {
                std::ostringstream os;
                if (t % 2)
                    runBlockSizeComparison(os);
                else
                    runCycleComparison(os, false);
                out[t] = os.str();
            });
        }
        for (std::thread &t : threads)
            t.join();
        return out;
    });
    const std::string fig3 = aloneInChild(1);
    const std::string fig5 = aloneInChild(3);
    ASSERT_EQ(raced.size(), 4u);
    EXPECT_EQ(raced[0], fig3);
    EXPECT_EQ(raced[1], fig5);
    EXPECT_EQ(raced[2], fig3);
    EXPECT_EQ(raced[3], fig5);
}

// ---------------------------------------------------------------------
// Pinned outputs of the drivers no CI step runs: the four ablations',
// the workload report's and the two extensions' rendered text, and the
// trace-cache extension's per-benchmark numbers, at BSISA_SCALE=6000
// on the abstract timing model.  A change to how these grids are
// planned or batched must leave every value unchanged; a change that
// moves one is a deliberate model event.

TEST(PinnedOutputs, AblationRenders)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    ScopedEnv model("BSISA_TIMING_MODEL", "abstract");
    const struct
    {
        const char *name;
        void (*driver)(std::ostream &);
        std::uint64_t digest;  //!< fnv1a64 of the rendered text
    } pins[] = {
        {"limits", runLimitsAblation, 0xbc35a3ebb8fe3673ull},
        {"profile", runProfileAblation, 0xced2b27882d6eceaull},
        {"predictor", runPredictorAblation, 0x6fcc60d6b165cbb0ull},
        {"conditions", runConditionsAblation, 0x56398db0cf17a057ull},
        {"workload report", runWorkloadReport, 0x681c5d797897c581ull},
        {"trace cache", runTraceCacheComparison, 0x6e5c5b6a41fbd770ull},
        {"inline", runInlineExtension, 0x0e11f0e1b93b38f3ull},
    };
    for (const auto &pin : pins) {
        std::ostringstream os;
        pin.driver(os);
        EXPECT_EQ(hex16(fnv1a64(os.str())), hex16(pin.digest))
            << pin.name << " now renders:\n"
            << os.str();
    }
}

TEST(PinnedOutputs, TraceCacheAcrossSuite)
{
    ScopedEnv scale("BSISA_SCALE", "6000");
    // Per benchmark: {cycles, trace hits, trace misses} with a 64-entry
    // and a 256-entry trace cache, at bench_ext_tracecache's budget.
    struct Run
    {
        std::uint64_t cycles, hits, misses;
    };
    const struct
    {
        const char *name;
        Run tc64, tc256;
    } pins[] = {
        {"compress", {2152, 315, 482}, {2152, 315, 482}},
        {"gcc", {9134, 218, 1649}, {9107, 252, 1586}},
        {"go", {6678, 195, 1278}, {6650, 232, 1203}},
        {"ijpeg", {2811, 550, 968}, {2806, 554, 959}},
        {"li", {7543, 791, 1143}, {7534, 800, 1121}},
        {"m88ksim", {2918, 365, 739}, {2918, 365, 739}},
        {"perl", {1993, 301, 455}, {1981, 314, 426}},
        {"vortex", {8239, 632, 1753}, {8224, 670, 1670}},
    };
    const auto suite = specint95Suite();
    ASSERT_EQ(suite.size(), std::size(pins));
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ASSERT_EQ(suite[i].params.name, pins[i].name);
        Interp::Limits limits;
        limits.maxOps = suite[i].paperInstructions / (scaleDivisor() * 2);
        const ExecTrace trace = captureTrace(suiteModule(i), limits);
        auto run = [&](unsigned entries) {
            TraceCacheConfig tc;
            tc.entries = entries;
            const TraceCacheResult r = runTraceCache(
                suiteModule(i), MachineConfig{}, tc, trace);
            return Run{r.sim.cycles, r.traceHits, r.traceMisses};
        };
        const Run tc64 = run(64);
        const Run tc256 = run(256);
        const auto text = [](const Run &r) {
            return "{" + std::to_string(r.cycles) + ", " +
                   std::to_string(r.hits) + ", " +
                   std::to_string(r.misses) + "}";
        };
        EXPECT_EQ(text(tc64), text(pins[i].tc64)) << pins[i].name;
        EXPECT_EQ(text(tc256), text(pins[i].tc256)) << pins[i].name;
    }
}
