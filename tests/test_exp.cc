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
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exp/figures.hh"
#include "ir/textform.hh"
#include "sim/tc_source.hh"
#include "sim/trace_store.hh"
#include "support/digest.hh"
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
    // perfbench permutes driver order per seed; the shared suite must
    // make every driver's text independent of what ran before it.
    std::ostringstream sweepFirst, cycleSecond;
    runIcacheSweep(sweepFirst, false);
    runCycleComparison(cycleSecond, false);
    std::ostringstream cycleFirst, sweepSecond;
    runCycleComparison(cycleFirst, false);
    runIcacheSweep(sweepSecond, false);
    EXPECT_EQ(sweepFirst.str(), sweepSecond.str());
    EXPECT_EQ(cycleFirst.str(), cycleSecond.str());
}

// ---------------------------------------------------------------------
// Pinned outputs of the drivers no CI step runs: the three ablations'
// rendered text and the trace-cache extension's per-benchmark numbers,
// at BSISA_SCALE=6000 on the abstract timing model.  A change to how
// these grids are planned or batched must leave every value unchanged;
// a change that moves one is a deliberate model event.

namespace
{

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

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
    };
    for (const auto &pin : pins) {
        std::ostringstream os;
        pin.driver(os);
        EXPECT_EQ(hex16(fnv1a64(os.str())), hex16(pin.digest))
            << pin.name << " ablation now renders:\n"
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
