/**
 * @file
 * Tests of the sweep service's layers below the process boundary:
 *
 *   spec    — parse/validate/canonicalise/digest: two spellings of
 *             one experiment share a digest, any semantic change
 *             moves it, every rejection carries a message.
 *   plan    — grid expansion order, config-digest field sensitivity,
 *             and cross-point dedup (coinciding grid points collapse
 *             to one unit serving both).
 *   store   — bit-exact round trip, torn-tail repair that keeps the
 *             intact prefix, a resumed writer's appends after a torn
 *             tail, bad-file skip, deterministic compaction (same
 *             content => byte-identical snapshot) that survives
 *             trailing-slash directory spellings, and a compaction
 *             that refuses a store a live writer holds.
 *   lease   — exclusive acquire, peer conflict, release, a lock
 *             file a dead holder or no pid names that does not lock,
 *             the pid label, and a lock no exec'd child inherits.
 *   sweep   — an in-process end-to-end run whose stored PairResults
 *             are bit-identical to monolithic runPair, a
 *             store-rendered figure byte-identical to the monolithic
 *             driver's output, a compacted store and a trace count
 *             that do not depend on BSISA_JOBS, PairSweep results
 *             that do not depend on its batch order, one trace
 *             resident at a time at one job, and completion callbacks
 *             that report each point once and can stop the sweep.
 *
 * The process-level crash-resume property (SIGKILL mid-grid) lives in
 * test_sweep_service.cc, which drives the real bsisa-sweep binary.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "child_process.hh"
#include "exp/figures.hh"
#include "exp/plan.hh"
#include "exp/result_store.hh"
#include "exp/runner.hh"
#include "exp/service.hh"
#include "exp/spec.hh"
#include "sim/trace_store.hh"
#include "support/lockfile.hh"

using namespace bsisa;

namespace
{

SweepSpec
mustParse(const std::string &text)
{
    SweepSpec spec;
    std::string error;
    const bool ok = parseSweepSpec(text, spec, error);
    EXPECT_TRUE(ok) << error;
    return spec;
}

std::string
parseError(const std::string &text)
{
    SweepSpec spec;
    std::string error;
    EXPECT_FALSE(parseSweepSpec(text, spec, error)) << text;
    EXPECT_FALSE(error.empty());
    return error;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A scratch directory per test, removed on teardown. */
class SweepDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (std::filesystem::temp_directory_path() /
               ("bsisa-test-sweep-" + std::to_string(::getpid()) +
                "-" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()))
                  .string();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }

    std::string dir;
};

ResultRecord
testRecord(std::uint64_t key)
{
    PairResult pair;
    pair.conv.cycles = key * 3 + 1;
    pair.bsa.cycles = key * 2 + 1;
    pair.enlarge.atomicBlocks = std::size_t(key);
    return makeResultRecord(key, key ^ 0x1111, key ^ 0x2222, pair);
}

} // namespace

// ---------------------------------------------------------------- spec

TEST(SweepSpec_, ParsesFullGrammar)
{
    const SweepSpec spec = mustParse(
        "# comment\n"
        "name: demo\n"
        "scale: 400\n"
        "budget_div: 2\n"
        "benchmarks: [compress, go]\n"
        "figure: none\n"
        "chunk_units: 3\n"
        "base:\n"
        "  issue_width: 8\n"
        "  predictor_scheme: PAs\n"
        "axes:\n"
        "  icache_kb: [16, 64]\n"
        "  history_bits: [8, 12]\n"
        "points:\n"
        "  - {icache_kb: 32, perfect_prediction: true}\n");
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.effectiveScale(), 400u);
    EXPECT_EQ(spec.budgetDiv, 2u);
    EXPECT_EQ(spec.chunkUnits, 3u);
    ASSERT_EQ(spec.benchmarks.size(), 2u);
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[0].first, "icache_kb");
    EXPECT_EQ(spec.axes[1].second.size(), 2u);
    ASSERT_EQ(spec.points.size(), 1u);
    // 2x2 cross product + 1 explicit point.
    EXPECT_EQ(spec.pointsPerBenchmark(), 5u);
}

TEST(SweepSpec_, SuiteKeywordExpandsToAllBenchmarks)
{
    const SweepSpec spec = mustParse("name: s\nbenchmarks: suite\n");
    EXPECT_EQ(spec.benchmarks.size(), 8u);
    // No axes, no points: the implicit base point.
    EXPECT_EQ(spec.pointsPerBenchmark(), 1u);
}

TEST(SweepSpec_, CanonicalFormIsAFixpoint)
{
    const SweepSpec spec = mustParse(
        "benchmarks: [go, compress]\n"
        "axes:\n"
        "  icache_kb: [16, 64]\n"
        "base: {perfect_prediction: true}\n"
        "name: \"demo\"\n");
    const std::string canon = canonicalSpec(spec);
    const SweepSpec again = mustParse(canon);
    EXPECT_EQ(canonicalSpec(again), canon);
    EXPECT_EQ(specDigest(again), specDigest(spec));
}

TEST(SweepSpec_, DigestIgnoresSpellingButNotSemantics)
{
    // Same experiment, different spelling: comments, key order,
    // quoting, numeric bases.
    const SweepSpec a = mustParse(
        "name: x\n"
        "benchmarks: [compress]\n"
        "base:\n"
        "  issue_width: 16\n"
        "  l2_latency: 6\n"
        "axes:\n"
        "  history_bits: [8, 12]\n");
    const SweepSpec b = mustParse(
        "# reordered keys, flow maps, quoted scalars\n"
        "axes:\n"
        "  history_bits: [\"8\", 12]\n"
        "base: {l2_latency: 6, issue_width: 16}\n"
        "benchmarks: [\"compress\"]\n"
        "name: \"x\"\n");
    EXPECT_EQ(specDigest(a), specDigest(b));

    // Any semantic change moves the digest.
    const SweepSpec c = mustParse(
        "name: x\nbenchmarks: [compress]\n"
        "base: {issue_width: 16, l2_latency: 7}\n"
        "axes:\n"
        "  history_bits: [8, 12]\n");
    EXPECT_NE(specDigest(a), specDigest(c));
}

TEST(SweepSpec_, RejectsBadInput)
{
    parseError("benchmarks: [compress]\n");             // no name
    parseError("name: x\n");                            // no benchmarks
    parseError("name: x\nbenchmarks: [nosuch]\n");      // unknown bench
    parseError("name: x\nbenchmarks: [go, go]\n");      // duplicate
    parseError("name: x\nname: y\nbenchmarks: [go]\n"); // dup key
    parseError("name: x\nbenchmarks: [go]\n\tbase:\n"); // tab indent
    parseError("name: x\nbenchmarks: [go]\n"
               "base: {warp_factor: 9}\n");             // unknown key
    parseError("name: x\nbenchmarks: [go]\n"
               "base: {issue_width: fast}\n");          // bad value
    EXPECT_EQ(parseError("name: x\nbenchmarks: [go]\n"
                         "base: {max_ops: 5000}\n"),
              "unknown config key 'max_ops'");  // tools only
    EXPECT_EQ(parseError("name: x\nbenchmarks: [go]\naxes:\n"
                         "  min_merge_bias: [0.5, nan]\n"),
              "min_merge_bias: expected a finite number, got 'nan'");
    parseError("name: x\nbenchmarks: [go]\nscale: 0\n");
    // A figure needs exactly one point per benchmark.
    parseError("name: x\nbenchmarks: suite\nfigure: cycles\n"
               "axes: {icache_kb: [16, 64]}\n");
}

TEST(SweepSpec_, RejectsOooGeometryTheEngineCannotRun)
{
    const std::string head = "name: x\nbenchmarks: [go]\n";
    // The OoO engine's bounds, then the cache and predictor tables'
    // geometry rule, which spans keys and so is checked on every
    // expanded config.
    const std::pair<std::string, std::string> bad[] = {
        {"rs_per_class", "0"}, {"commit_width", "0"}, {"rob_ops", "0"},
        {"lsq_entries", "0"},  {"phys_regs", "20"},   {"phys_regs", "33"},
        {"phys_regs", "65537"},
        {"btb_assoc", "0"},    {"icache_assoc", "0"}, {"btb_entries", "3"},
        {"history_entries", "3"}, {"icache_kb", "3"}, {"dcache_kb", "0"},
        {"pht_bits", "64"},    {"pht_bits", "25"},   {"history_bits", "65"},
        {"issue_width", "0"},  {"issue_width", "256"},
        {"window_units", "0"}, {"window_ops", "4"},
        {"enlarge_max_ops", "8"}, {"max_variants_per_head", "0"}};
    for (const auto &[key, value] : bad) {
        const std::string kv = key + ": " + value;
        for (const std::string &where :
             {"base: {timing_model: ooo, " + kv + "}\n",
              "axes:\n  " + key + ": [64, " + value + "]\n",
              "points:\n  - {" + kv + "}\n"}) {
            const std::string error = parseError(head + where);
            EXPECT_EQ(error.rfind(key + ": expected ", 0), 0u)
                << where << " -> " << error;
        }
    }
    // The bounds themselves are runnable geometry.
    mustParse(head + "base: {rs_per_class: 1, commit_width: 1, "
                     "rob_ops: 1, lsq_entries: 1, phys_regs: 34}\n");
    mustParse(head + "base: {phys_regs: 65536}\n");
    mustParse(head + "base: {btb_assoc: 1, btb_entries: 1, "
                     "history_entries: 1, icache_kb: 1, icache_assoc: 1, "
                     "dcache_kb: 1, pht_bits: 24, history_bits: 64}\n");
    // A window smaller than the largest enlarged block, in either key.
    for (const std::string &where :
         {std::string("base: {window_ops: 20, enlarge_max_ops: 32}\n"),
          std::string("base: {window_ops: 20}\n"
                      "axes:\n  enlarge_max_ops: [16, 32]\n")}) {
        const std::string error = parseError(head + where);
        EXPECT_EQ(error.rfind("window_ops: expected ", 0), 0u)
            << where << " -> " << error;
    }
    mustParse(head + "base: {issue_width: 1, window_units: 1, "
                     "window_ops: 16, enlarge_max_ops: 16}\n");
    mustParse(head + "base: {issue_width: 255, window_ops: 32, "
                     "enlarge_max_ops: 32}\n");
}

TEST(SweepSpec_, ConfigKeysReachTheirFields)
{
    RunConfig config;
    std::string error;
    ASSERT_TRUE(applyConfigKey(config, "issue_width", "16", error));
    ASSERT_TRUE(applyConfigKey(config, "icache_kb", "64", error));
    ASSERT_TRUE(
        applyConfigKey(config, "predictor_scheme", "PAs", error));
    ASSERT_TRUE(
        applyConfigKey(config, "perfect_prediction", "true", error));
    ASSERT_TRUE(
        applyConfigKey(config, "min_merge_bias", "0.75", error));
    ASSERT_TRUE(
        applyConfigKey(config, "enlarge_max_ops", "32", error));
    ASSERT_TRUE(
        applyConfigKey(config, "timing_model", "ooo", error));
    EXPECT_EQ(config.machine.timingModel, TimingModel::Ooo);
    ASSERT_TRUE(
        applyConfigKey(config, "timing_model", "abstract", error));
    EXPECT_EQ(config.machine.timingModel, TimingModel::Abstract);
    EXPECT_FALSE(
        applyConfigKey(config, "timing_model", "cycle", error));
    ASSERT_TRUE(applyConfigKey(config, "rob_ops", "96", error));
    ASSERT_TRUE(applyConfigKey(config, "phys_regs", "80", error));
    ASSERT_TRUE(applyConfigKey(config, "rs_per_class", "12", error));
    ASSERT_TRUE(applyConfigKey(config, "lsq_entries", "24", error));
    ASSERT_TRUE(applyConfigKey(config, "commit_width", "8", error));
    ASSERT_TRUE(applyConfigKey(config, "max_ops", "5000", error));
    EXPECT_EQ(config.limits.maxOps, 5000u);
    EXPECT_EQ(config.machine.ooo.robOps, 96u);
    EXPECT_EQ(config.machine.ooo.physRegs, 80u);
    EXPECT_EQ(config.machine.ooo.rsPerClass, 12u);
    EXPECT_EQ(config.machine.ooo.lsqEntries, 24u);
    EXPECT_EQ(config.machine.ooo.commitWidth, 8u);
    EXPECT_EQ(config.machine.issueWidth, 16u);
    EXPECT_EQ(config.machine.icache.sizeBytes, 64u * 1024u);
    EXPECT_EQ(config.machine.predictor.scheme,
              PredictorScheme::PAs);
    EXPECT_TRUE(config.machine.perfectPrediction);
    EXPECT_DOUBLE_EQ(config.minMergeBias, 0.75);
    EXPECT_EQ(config.enlarge.maxOps, 32u);

    EXPECT_FALSE(applyConfigKey(config, "nope", "1", error));
    EXPECT_FALSE(error.empty());
}

// Every value a key accepts fits its field: the largest reads back
// unchanged and one more is out of range, so no key wraps a value past
// its field (after the _kb scaling) into a small one.  Numbers must be
// finite: a NaN config is not == to itself, so it never shares a batch.
TEST(SweepSpec_, ConfigKeyRangesFitTheirFields)
{
    for (const ConfigField &row : configFields()) {
        if (!row.key)
            continue;
        const std::string name = row.key;
        RunConfig config;
        std::string error;
        if (row.kind == ConfigKeyKind::Double) {
            for (const char *bad : {"nan", "-nan", "inf", "-inf", "1e999"})
                EXPECT_FALSE(applyConfigKey(config, name, bad, error))
                    << name << ": " << bad;
            continue;
        }
        if (row.kind != ConfigKeyKind::U64)
            continue;
        ASSERT_TRUE(applyConfigKey(config, name,
                                   std::to_string(row.upper()), error))
            << error;
        EXPECT_EQ(row.get(config), row.upper() * row.scale) << name;

        // One past the bound, and one past what the field holds.
        const std::uint64_t fieldMax =
            name == "max_ops" ? ~0ull : ~std::uint32_t(0);
        for (std::uint64_t over : {row.upper(), fieldMax / row.scale}) {
            const std::string text =
                over == ~0ull ? "18446744073709551616"
                              : std::to_string(over + 1);
            EXPECT_FALSE(applyConfigKey(config, name, text, error))
                << name << ": " << text;
            EXPECT_EQ(error.rfind(name + ": expected ", 0), 0u) << error;
        }
        if (row.min > 0) {
            EXPECT_FALSE(applyConfigKey(
                config, name, std::to_string(row.min - 1), error))
                << name;
        }
    }
}

// ---------------------------------------------------------------- plan

TEST(SweepPlan_, ConfigDigestIsFieldSensitive)
{
    RunConfig base;
    const std::uint64_t baseDigest = runConfigDigest(base);
    EXPECT_EQ(runConfigDigest(base), baseDigest);  // stable

    // One in-range value per key, each different from its default.  A
    // new key fails here until it has one.
    const std::map<std::string, std::string> values = {
        {"issue_width", "8"},
        {"window_ops", "256"},
        {"window_units", "16"},
        {"frontend_depth", "5"},
        {"redirect_penalty", "5"},
        {"l2_latency", "5"},
        {"icache_kb", "16"},
        {"icache_assoc", "2"},
        {"icache_perfect", "true"},
        {"dcache_kb", "32"},
        {"dcache_assoc", "8"},
        {"dcache_perfect", "true"},
        {"predictor_scheme", "PAs"},
        {"history_bits", "8"},
        {"pht_bits", "12"},
        {"history_entries", "512"},
        {"btb_entries", "1024"},
        {"btb_assoc", "2"},
        {"perfect_prediction", "true"},
        {"enlarge_max_ops", "32"},
        {"enlarge_max_faults", "4"},
        {"merge_across_back_edges", "true"},
        {"enlarge_library_functions", "true"},
        {"enlarge_enabled", "false"},
        {"max_variants_per_head", "2"},
        {"max_ops", "100000"},
        {"min_merge_bias", "0.123"},
        {"timing_model", "ooo"},
        {"rob_ops", "96"},
        {"phys_regs", "80"},
        {"rs_per_class", "12"},
        {"lsq_entries", "24"},
        {"commit_width", "8"},
    };
    // Every key moves operator== and the digest and reaches a field no
    // other key does.  The timing-model key is among them: a sweep
    // comparing backends must never alias its points onto one stored
    // result.
    std::set<std::uint64_t> keyDigests{baseDigest};
    std::size_t keys = 0;
    for (const ConfigField &row : configFields()) {
        if (!row.key)
            continue;
        ++keys;
        const auto it = values.find(row.key);
        ASSERT_NE(it, values.end()) << row.key << " has no test value";
        RunConfig mutated;
        std::string error;
        ASSERT_TRUE(applyConfigKey(mutated, row.key, it->second, error))
            << row.key << ": " << error;
        EXPECT_NE(mutated, base) << row.key;
        EXPECT_NE(row.get(mutated), row.get(base)) << row.key;
        EXPECT_TRUE(keyDigests.insert(runConfigDigest(mutated)).second)
            << row.key << " aliases the default or another key";
    }
    EXPECT_EQ(keys, values.size());

    // Every field, mutated directly (spec keys reach only some), moves
    // both operator== and the digest, and no two single-field
    // mutations collide.  The figure drivers serve memoized results by
    // this digest, so a missing field would silently change a figure;
    // spec.cc's static_asserts fail the build when a field is added.
    using Mutation = void (*)(RunConfig &);
    const Mutation mutations[] = {
        [](RunConfig &c) { c.machine.issueWidth += 1; },
        [](RunConfig &c) { c.machine.windowOps += 1; },
        [](RunConfig &c) { c.machine.windowUnits += 1; },
        [](RunConfig &c) { c.machine.frontendDepth += 1; },
        [](RunConfig &c) { c.machine.redirectPenalty += 1; },
        [](RunConfig &c) { c.machine.l2Latency += 1; },
        [](RunConfig &c) { c.machine.icache.sizeBytes *= 2; },
        [](RunConfig &c) { c.machine.icache.assoc *= 2; },
        [](RunConfig &c) { c.machine.icache.lineBytes *= 2; },
        [](RunConfig &c) { c.machine.icache.perfect = true; },
        [](RunConfig &c) { c.machine.dcache.sizeBytes *= 2; },
        [](RunConfig &c) { c.machine.dcache.assoc *= 2; },
        [](RunConfig &c) { c.machine.dcache.lineBytes *= 2; },
        [](RunConfig &c) { c.machine.dcache.perfect = true; },
        [](RunConfig &c) {
            c.machine.predictor.scheme = PredictorScheme::PAs;
        },
        [](RunConfig &c) { c.machine.predictor.historyBits += 1; },
        [](RunConfig &c) { c.machine.predictor.phtBits += 1; },
        [](RunConfig &c) { c.machine.predictor.historyEntries *= 2; },
        [](RunConfig &c) { c.machine.predictor.btbEntries *= 2; },
        [](RunConfig &c) { c.machine.predictor.btbAssoc *= 2; },
        [](RunConfig &c) { c.machine.perfectPrediction = true; },
        [](RunConfig &c) { c.machine.timingModel = TimingModel::Ooo; },
        [](RunConfig &c) { c.machine.ooo.robOps += 1; },
        [](RunConfig &c) { c.machine.ooo.physRegs += 1; },
        [](RunConfig &c) { c.machine.ooo.rsPerClass += 1; },
        [](RunConfig &c) { c.machine.ooo.lsqEntries += 1; },
        [](RunConfig &c) { c.machine.ooo.commitWidth += 1; },
        [](RunConfig &c) { c.enlarge.maxOps += 1; },
        [](RunConfig &c) { c.enlarge.maxFaults += 1; },
        [](RunConfig &c) { c.enlarge.mergeAcrossBackEdges = true; },
        [](RunConfig &c) { c.enlarge.enlargeLibraryFunctions = true; },
        [](RunConfig &c) { c.enlarge.enabled = false; },
        [](RunConfig &c) { c.enlarge.maxVariantsPerHead += 1; },
        [](RunConfig &c) { c.enlarge.minMergeBias = 0.75; },
        [](RunConfig &c) { c.limits.maxOps += 1; },
        [](RunConfig &c) { c.limits.maxBlocks += 1; },
        [](RunConfig &c) { c.minMergeBias = 0.75; },
    };
    std::set<std::uint64_t> digests{baseDigest};
    for (std::size_t m = 0; m < std::size(mutations); ++m) {
        RunConfig mutated;
        mutations[m](mutated);
        EXPECT_NE(mutated, base) << "mutation " << m;
        EXPECT_TRUE(digests.insert(runConfigDigest(mutated)).second)
            << "mutation " << m << " aliases another config";
    }
}

// Config digests recorded before PredictorConfig::perfect was
// removed: its retired slot hashes a constant, so every stored unit
// key (module digest x config digest) keeps its value.
TEST(SweepPlan_, ConfigDigestIsPinned)
{
    RunConfig oracle;
    oracle.machine.perfectPrediction = true;
    oracle.machine.predictor.historyBits = 8;
    RunConfig ooo;
    ooo.machine.timingModel = TimingModel::Ooo;
    ooo.machine.icache.sizeBytes = 16 * 1024;
    ooo.machine.ooo.robOps = 96;
    RunConfig enlarged;
    enlarged.enlarge.maxOps = 32;
    enlarged.enlarge.maxFaults = 4;
    enlarged.minMergeBias = 0.75;
    enlarged.limits.maxOps = 100000;
    RunConfig pas;
    pas.machine.predictor.scheme = PredictorScheme::PAs;
    pas.machine.predictor.btbEntries = 512;
    pas.machine.dcache.perfect = true;
    pas.machine.issueWidth = 8;

    EXPECT_EQ(runConfigDigest(RunConfig{}), 0x99b4513bf8f696f5ull);
    EXPECT_EQ(runConfigDigest(oracle), 0x79fdca6e102014f0ull);
    EXPECT_EQ(runConfigDigest(ooo), 0xfffe552c4dd1f255ull);
    EXPECT_EQ(runConfigDigest(enlarged), 0xd9793db5ddfa3f99ull);
    EXPECT_EQ(runConfigDigest(pas), 0x2f1e707472e7cf54ull);
}

TEST(SweepPlan_, GridExpansionOrderAndCollapse)
{
    const SweepSpec spec = mustParse(
        "name: grid\n"
        "scale: 2000\n"
        "benchmarks: [compress]\n"
        "base: {issue_width: 8}\n"
        "axes:\n"
        "  icache_kb: [16, 64]\n"
        "  history_bits: [8, 12]\n"
        "points:\n"
        "  - {icache_kb: 16, history_bits: 8}\n");

    Interp::Limits limits;
    limits.maxOps = 1000;
    std::vector<RunConfig> grid;
    std::string error;
    ASSERT_TRUE(expandGrid(spec, limits, grid, error)) << error;
    ASSERT_EQ(grid.size(), 5u);
    // First axis outermost: icache 16,16,64,64; history 8,12,8,12.
    EXPECT_EQ(grid[0].machine.icache.sizeBytes, 16u * 1024u);
    EXPECT_EQ(grid[1].machine.icache.sizeBytes, 16u * 1024u);
    EXPECT_EQ(grid[2].machine.icache.sizeBytes, 64u * 1024u);
    EXPECT_EQ(grid[0].machine.predictor.historyBits, 8u);
    EXPECT_EQ(grid[1].machine.predictor.historyBits, 12u);
    // The explicit point coincides with grid point 0.
    EXPECT_EQ(runConfigDigest(grid[4]), runConfigDigest(grid[0]));

    SweepPlan plan;
    ASSERT_TRUE(buildPlan(spec, 0, plan, error)) << error;
    EXPECT_EQ(plan.gridPoints(), 5u);
    // ...so the plan holds 4 units, one serving two points.
    ASSERT_EQ(plan.units.size(), 4u);
    EXPECT_EQ(plan.pointUnit[4], plan.pointUnit[0]);
    std::size_t twoPointUnits = 0;
    for (const WorkUnit &unit : plan.units)
        if (unit.pointIds.size() == 2)
            ++twoPointUnits;
    EXPECT_EQ(twoPointUnits, 1u);

    // Chunk carving: cap 3 over 4 units -> chunks of 3 + 1, keys
    // distinct, every unit in exactly one chunk.
    SweepPlan chunked;
    ASSERT_TRUE(buildPlan(spec, 3, chunked, error)) << error;
    ASSERT_EQ(chunked.chunks.size(), 2u);
    EXPECT_EQ(chunked.chunks[0].size(), 3u);
    EXPECT_EQ(chunked.chunks[1].size(), 1u);
    EXPECT_NE(chunked.chunkKeys[0], chunked.chunkKeys[1]);
}

// --------------------------------------------------------------- store

TEST_F(SweepDirTest, StoreRoundTripIsBitExact)
{
    ResultStore writer(dir);
    for (std::uint64_t key : {7u, 3u, 11u})
        ASSERT_TRUE(writer.append(testRecord(key)));

    ResultStore reader(dir);
    const ResultScanStats stats = reader.refresh();
    EXPECT_EQ(stats.records, 3u);
    EXPECT_EQ(stats.tornTails, 0u);
    EXPECT_EQ(stats.badShards, 0u);
    for (std::uint64_t key : {3u, 7u, 11u}) {
        const ResultRecord *got = reader.find(key);
        ASSERT_NE(got, nullptr);
        const ResultRecord want = testRecord(key);
        EXPECT_EQ(std::memcmp(got, &want, sizeof(want)), 0);
    }
    EXPECT_FALSE(reader.contains(12345));
    EXPECT_EQ(reader.keys(), (std::vector<std::uint64_t>{3, 7, 11}));
}

TEST_F(SweepDirTest, TornTailKeepsIntactPrefix)
{
    {
        ResultStore writer(dir);
        for (std::uint64_t key = 1; key <= 4; ++key)
            ASSERT_TRUE(writer.append(testRecord(key)));
    }
    // Tear the final frame: chop 5 bytes off the log.
    const std::string logPath = dir + "/log.bsr";
    const auto size = std::filesystem::file_size(logPath);
    std::filesystem::resize_file(logPath, size - 5);

    ResultStore reader(dir);
    const ResultScanStats stats = reader.refresh();
    EXPECT_EQ(stats.tornTails, 1u);
    EXPECT_EQ(stats.records, 3u);  // only the torn record is lost
    EXPECT_TRUE(reader.contains(3));
    EXPECT_FALSE(reader.contains(4));

    // A corrupted *byte* in an intact record is also a torn tail:
    // the checksum catches it and the scan stops there, keeping the
    // records before it (16-byte file header, then 16-byte frame
    // headers — aim inside the second record's payload).
    std::string bytes = readFileBytes(logPath);
    bytes[16 + (16 + sizeof(ResultRecord)) + 16 + 40] ^= 0x40;
    std::ofstream(logPath, std::ios::binary | std::ios::trunc)
        << bytes;
    const ResultScanStats again = reader.refresh();
    EXPECT_EQ(again.tornTails, 1u);
    EXPECT_EQ(again.records, 1u);
    EXPECT_TRUE(reader.contains(1));
    EXPECT_FALSE(reader.contains(2));
}

// A writer resumed on a log with a torn tail truncates it to the last
// whole frame before appending: the records it adds would otherwise
// sit behind the torn frame, where no reader finds them.
TEST_F(SweepDirTest, ResumedWriterAppendsAfterTornTail)
{
    {
        ResultStore writer(dir);
        for (std::uint64_t key = 1; key <= 4; ++key)
            ASSERT_TRUE(writer.append(testRecord(key)));
    }
    const std::string logPath = dir + "/log.bsr";
    std::filesystem::resize_file(logPath,
                                 std::filesystem::file_size(logPath) - 5);
    {
        ResultStore resumed(dir);
        for (std::uint64_t key : {5u, 6u})
            ASSERT_TRUE(resumed.append(testRecord(key)));
    }

    const std::vector<std::uint64_t> intact = {1, 2, 3, 5, 6};
    ResultStore reader(dir);
    const ResultScanStats stats = reader.refresh();
    EXPECT_EQ(stats.tornTails, 0u);
    EXPECT_EQ(reader.keys(), intact);

    ASSERT_TRUE(reader.compact());
    ResultStore compacted(dir);
    EXPECT_EQ(compacted.refresh().shardFiles, 1u);  // the snapshot
    EXPECT_EQ(compacted.keys(), intact);
    for (std::uint64_t key : intact) {
        const ResultRecord want = testRecord(key);
        EXPECT_EQ(std::memcmp(compacted.find(key), &want, sizeof(want)),
                  0);
    }
}

// A junk log beside a snapshot is counted and skipped; the snapshot's
// records are still read.
TEST_F(SweepDirTest, BadShardIsSkippedNotFatal)
{
    {
        ResultStore writer(dir);
        ASSERT_TRUE(writer.append(testRecord(1)));
        ASSERT_TRUE(writer.compact());
    }
    std::ofstream(dir + "/log.bsr", std::ios::binary)
        << "not a shard at all";

    ResultStore reader(dir);
    const ResultScanStats stats = reader.refresh();
    EXPECT_EQ(stats.badShards, 1u);
    EXPECT_EQ(stats.shardFiles, 1u);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_TRUE(reader.contains(1));
}

TEST_F(SweepDirTest, CompactionIsDeterministic)
{
    const std::string dirB = dir + "-b";
    std::filesystem::create_directories(dirB);

    // Same records, different append order and writers — plus a
    // duplicate in one store, as a resumed run that repeats a unit
    // leaves.
    {
        ResultStore a(dir);
        for (std::uint64_t key : {5u, 1u, 9u})
            ASSERT_TRUE(a.append(testRecord(key)));
        ASSERT_TRUE(a.compact());
    }
    {
        ResultStore b1(dirB);
        ASSERT_TRUE(b1.append(testRecord(9)));
        ASSERT_TRUE(b1.append(testRecord(5)));
    }
    {
        ResultStore b2(dirB);  // the next writer on the same log
        ASSERT_TRUE(b2.append(testRecord(1)));
        ASSERT_TRUE(b2.append(testRecord(5)));  // repeated unit
        EXPECT_EQ(b2.refresh().duplicates, 1u);
        ASSERT_TRUE(b2.compact());
    }

    EXPECT_EQ(readFileBytes(dir + "/snapshot.bsr"),
              readFileBytes(dirB + "/snapshot.bsr"));
    // Compaction unlinked the merged log.
    std::size_t filesLeft = 0;
    for (const auto &de : std::filesystem::directory_iterator(dir)) {
        (void)de;
        ++filesLeft;
    }
    EXPECT_EQ(filesLeft, 1u);

    std::error_code ec;
    std::filesystem::remove_all(dirB, ec);
}

TEST_F(SweepDirTest, CompactionHandlesTrailingSlashDir)
{
    // Regression: compact() used to compare scanned paths to the
    // snapshot path by raw string, so `dir/` yielded `dir//snapshot`
    // vs `dir/snapshot` — same inode, unequal strings — and the
    // freshly published snapshot was unlinked along with the shards,
    // destroying the whole store.
    {
        ResultStore writer(dir + "/");
        ASSERT_TRUE(writer.append(testRecord(1)));
        ASSERT_TRUE(writer.append(testRecord(2)));
        ASSERT_TRUE(writer.compact());
    }
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/snapshot.bsr"));
    std::size_t filesLeft = 0;
    for (const auto &de : std::filesystem::directory_iterator(dir)) {
        (void)de;
        ++filesLeft;
    }
    EXPECT_EQ(filesLeft, 1u);

    ResultStore reader(dir);
    EXPECT_EQ(reader.refresh().records, 2u);
    EXPECT_TRUE(reader.contains(1));
    EXPECT_TRUE(reader.contains(2));

    // A second compaction through the slashed spelling is also safe.
    ResultStore again(dir + "//");
    ASSERT_TRUE(again.compact());
    EXPECT_EQ(again.refresh().records, 2u);
}

// A store has one writer.  While another handle holds the writer
// lock, compaction (and appending) is refused with an error naming the
// holder's pid, and the store is left as it was.  flock conflicts
// across two descriptors of one process, so the holder is a second
// handle here.
TEST_F(SweepDirTest, CompactionRefusesALiveWritersStore)
{
    {
        ResultStore writer(dir);
        ASSERT_TRUE(writer.append(testRecord(1)));
    }
    ResultStore store(dir);
    auto holder = std::make_unique<ResultStore>(dir);
    std::string error;
    ASSERT_TRUE(holder->lockWriter(error)) << error;

    const std::uint64_t pid = std::uint64_t(::getpid());
    EXPECT_FALSE(store.lockWriter(error));
    EXPECT_NE(error.find("has a live writer, pid " + std::to_string(pid)),
              std::string::npos)
        << error;
    EXPECT_FALSE(store.compact());
    EXPECT_FALSE(store.append(testRecord(2)));
    EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot.bsr"));
    EXPECT_EQ(store.refresh().records, 1u);
    EXPECT_EQ(leaseHolderPid(store.lockPath()), pid);

    // Once the holder is gone, the same handle compacts.
    holder.reset();
    EXPECT_FALSE(std::filesystem::exists(store.lockPath()));
    ASSERT_TRUE(store.compact());
    EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot.bsr"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/log.bsr"));
}

// A writer.lock that names a live process no longer locks the store
// when no process holds it: a crashed writer's file whose pid was
// reused, here our parent's.
TEST_F(SweepDirTest, UnheldLockNamingALivePidDoesNotLock)
{
    {
        ResultStore writer(dir);
        ASSERT_TRUE(writer.append(testRecord(1)));
    }
    ResultStore store(dir);
    const std::uint64_t parent = std::uint64_t(::getppid());
    ASSERT_TRUE(processAlive(parent));
    std::ofstream(store.lockPath()) << "pid " << parent << "\n";

    std::string error;
    ASSERT_TRUE(store.lockWriter(error)) << error;
    EXPECT_EQ(leaseHolderPid(store.lockPath()), std::uint64_t(::getpid()));
    ASSERT_TRUE(store.compact());
    EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot.bsr"));
    EXPECT_EQ(store.refresh().records, 1u);
}

TEST(ParsePid, AcceptsOnlyWhatAPidCanHold)
{
    EXPECT_EQ(parsePid("1"), 1u);
    EXPECT_EQ(parsePid("2147483647"), 2147483647u);
    for (const char *bad : {"", "0", "-1", "+7", " 7", "7 ", "4294967297",
                            "18446744073709551615", "0x10", "12a"})
        EXPECT_EQ(parsePid(bad), 0u) << bad;
}

// --------------------------------------------------------------- lease

TEST_F(SweepDirTest, LeaseIsExclusiveUntilReleased)
{
    const std::string path = dir + "/chunk.lease";
    FileLease first;
    ASSERT_TRUE(first.tryAcquire(path));
    EXPECT_TRUE(first.held());
    EXPECT_EQ(leaseHolderPid(path), std::uint64_t(::getpid()));
    EXPECT_TRUE(processAlive(std::uint64_t(::getpid())));

    FileLease second;
    EXPECT_FALSE(second.tryAcquire(path));  // we are alive

    first.release();
    EXPECT_FALSE(first.held());
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(second.tryAcquire(path));
}

TEST_F(SweepDirTest, DeadHoldersLeaseIsBroken)
{
    // A real dead pid: fork a child that exits immediately, reap it.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_FALSE(processAlive(std::uint64_t(child)));

    const std::string path = dir + "/stale.lease";
    std::ofstream(path) << "pid " << child << "\n";
    FileLease lease;
    EXPECT_TRUE(lease.tryAcquire(path));
    EXPECT_EQ(leaseHolderPid(path), std::uint64_t(::getpid()));
}

TEST_F(SweepDirTest, AcquireLeavesNoTempLitterAndWritesPidAtomically)
{
    const std::string path = dir + "/atomic.lease";
    FileLease lease;
    ASSERT_TRUE(lease.tryAcquire(path));
    // The lease is created with its pid line already in place (temp +
    // link), and the temp is gone by the time tryAcquire returns.
    EXPECT_EQ(leaseHolderPid(path), std::uint64_t(::getpid()));
    std::size_t files = 0;
    for (const auto &de : std::filesystem::directory_iterator(dir)) {
        (void)de;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST_F(SweepDirTest, LeaseWithoutAPidDoesNotLock)
{
    // A lease file with no parseable pid (foreign writer, torn byte)
    // is only a file: no descriptor holds its lock.
    const std::string path = dir + "/weird.lease";
    std::ofstream(path) << "not a lease\n";
    ASSERT_EQ(leaseHolderPid(path), 0u);

    FileLease lease;
    EXPECT_TRUE(lease.tryAcquire(path));
    EXPECT_EQ(leaseHolderPid(path), std::uint64_t(::getpid()));
}

// The lease's descriptor is close-on-exec: a child the holder starts
// does not inherit the lock and so cannot keep the store locked once
// the holder lets go.  A hard link keeps the locked inode reachable
// after release() unlinks its name, as a crashed holder's file stays.
TEST_F(SweepDirTest, LeaseIsNotInheritedAcrossExec)
{
    const std::string path = dir + "/exec.lease";
    const std::string alias = dir + "/exec-alias.lease";
    FileLease lease;
    ASSERT_TRUE(lease.tryAcquire(path));
    ASSERT_EQ(::link(path.c_str(), alias.c_str()), 0);

    char sleepPath[] = "/bin/sleep";
    char seconds[] = "5";
    char *argv[] = {sleepPath, seconds, nullptr};
    pid_t child = 0;
    ASSERT_EQ(::posix_spawn(&child, sleepPath, nullptr, nullptr, argv,
                            environ),
              0);
    lease.release();

    FileLease again;
    EXPECT_TRUE(again.tryAcquire(alias));
    int status = 0;
    EXPECT_EQ(::waitpid(child, &status, WNOHANG), 0)
        << "the child exited before the lock was probed";
    ::kill(child, SIGKILL);
    EXPECT_EQ(::waitpid(child, &status, 0), child);
}

// --------------------------------------------------------------- sweep

namespace
{

class SweepFixture : public SweepDirTest
{
  protected:
    void
    SetUp() override
    {
        SweepDirTest::SetUp();
        ::setenv("BSISA_SCALE", "2000", 1);
    }

    void
    TearDown() override
    {
        ::unsetenv("BSISA_SCALE");
        SweepDirTest::TearDown();
    }
};

} // namespace

TEST_F(SweepFixture, SweepFailsFastOnUnwritableStore)
{
    // A store that cannot be created (here: nested under a regular
    // file, which fails even for root) fails the sweep up front, at
    // its writer lock, before any plan is built.
    std::ofstream(dir + "/blocker") << "x";

    const SweepSpec spec = mustParse(
        "name: unwritable\n"
        "scale: 2000\n"
        "benchmarks: [compress]\n");
    std::ostringstream log;
    EXPECT_FALSE(runSweepCoordinator(spec, {dir + "/blocker/store"}, log));
    EXPECT_EQ(log.str(), "sweep: cannot create " + dir +
                             "/blocker/store/writer.lock\n"
                             "sweep: units=0 executed=0 warm=0\n");
}

TEST_F(SweepFixture, EndToEndMatchesMonolithicRunPair)
{
    const SweepSpec spec = mustParse(
        "name: e2e\n"
        "scale: 2000\n"
        "benchmarks: [compress, go]\n"
        "axes:\n"
        "  icache_kb: [16, 64]\n");

    std::ostringstream cold;
    ASSERT_TRUE(runSweepCoordinator(spec, {dir}, cold));
    EXPECT_EQ(cold.str(), "sweep: units=4 executed=4 warm=0\n");

    // Every stored result is bit-identical to a monolithic runPair of
    // the same module + config.
    SweepPlan plan;
    std::string error;
    ASSERT_TRUE(buildPlan(spec, 0, plan, error)) << error;
    ResultStore store(dir);
    store.refresh();
    ASSERT_EQ(store.size(), plan.units.size());
    for (const WorkUnit &unit : plan.units) {
        const ResultRecord *got = store.find(unit.key);
        ASSERT_NE(got, nullptr);
        const PairResult want =
            runPair(plan.modules[unit.bench], unit.config);
        EXPECT_EQ(std::memcmp(&got->pair, &want, sizeof(want)), 0);
    }

    // A second run over the same store is fully warm (and the plan
    // marker fast path reports completion without a plan).
    std::ostringstream warm;
    ASSERT_TRUE(runSweepCoordinator(spec, {dir}, warm));
    EXPECT_EQ(warm.str(), "sweep: units=4 executed=0 warm=4\n");
}

namespace
{

/** Stamp @p path's header with the next format version, as a newer
 *  binary would have written it. */
void
stampNextFormatVersion(const std::string &path)
{
    const std::uint32_t next = resultStoreFormatVersion + 1;
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(sizeof(resultStoreMagic));
    f.write(reinterpret_cast<const char *>(&next), sizeof(next));
    ASSERT_TRUE(f.good()) << path;
}

const SweepSpec &
foreignSpec()
{
    static const SweepSpec spec = mustParse(
        "name: foreign\n"
        "scale: 2000\n"
        "benchmarks: [compress]\n");
    return spec;
}

} // namespace

// A store of another format version is refused, never truncated: a
// `run` on another version's log fails naming the file and both
// versions, and leaves its bytes as they are.
TEST_F(SweepFixture, RunRefusesAnotherVersionsLog)
{
    std::ostringstream first;
    ASSERT_TRUE(runSweepCoordinator(foreignSpec(), {dir}, first))
        << first.str();
    // A compacted store holds only its snapshot; a log is the same
    // framing under another name.
    const std::string logPath = dir + "/log.bsr";
    std::filesystem::rename(dir + "/snapshot.bsr", logPath);
    stampNextFormatVersion(logPath);
    const std::string before = readFileBytes(logPath);

    std::ostringstream log;
    EXPECT_FALSE(runSweepCoordinator(foreignSpec(), {dir}, log));
    EXPECT_NE(log.str().find(logPath + " is results-store format "
                             "version " +
                             std::to_string(resultStoreFormatVersion + 1) +
                             ", this binary's is " +
                             std::to_string(resultStoreFormatVersion)),
              std::string::npos)
        << log.str();
    EXPECT_EQ(readFileBytes(logPath), before);
    EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot.bsr"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/writer.lock"));
}

// ...and `compact` on another version's snapshot fails the same way
// instead of republishing it with only this version's records;
// `status` names the file.
TEST_F(SweepFixture, CompactRefusesAnotherVersionsSnapshot)
{
    std::ostringstream first;
    ASSERT_TRUE(runSweepCoordinator(foreignSpec(), {dir}, first))
        << first.str();
    const std::string snapshotPath = dir + "/snapshot.bsr";
    stampNextFormatVersion(snapshotPath);
    const std::string before = readFileBytes(snapshotPath);

    ResultStore store(dir);
    std::string error;
    EXPECT_FALSE(store.lockWriter(error));
    EXPECT_NE(error.find(snapshotPath + " is results-store format"),
              std::string::npos)
        << error;
    EXPECT_FALSE(store.compact());
    EXPECT_FALSE(store.append(testRecord(1)));
    EXPECT_EQ(readFileBytes(snapshotPath), before);
    EXPECT_FALSE(std::filesystem::exists(dir + "/log.bsr"));

    std::ostringstream status;
    ASSERT_TRUE(printSweepStatus(status, dir));
    EXPECT_NE(status.str().find("writers refuse this store: " +
                                snapshotPath),
              std::string::npos)
        << status.str();
}

// Each checked-in figure spec, read from the source tree at scale
// 2000, renders from the results store byte for byte what its driver
// prints under the spec's timing model, so neither can drift.
TEST_F(SweepFixture, StoreRenderedFigureMatchesMonolithicDriver)
{
    const struct
    {
        const char *file;
        const char *timingModel;
        void (*driver)(std::ostream &);
    } figures[] = {
        {"fig3.yml", "abstract",
         [](std::ostream &os) { runCycleComparison(os, false); }},
        {"fig3-ooo.yml", "ooo",
         [](std::ostream &os) { runCycleComparison(os, false); }},
        {"fig4.yml", "abstract",
         [](std::ostream &os) { runCycleComparison(os, true); }},
        {"fig5.yml", "abstract",
         [](std::ostream &os) { runBlockSizeComparison(os); }},
    };
    for (const auto &figure : figures) {
        SweepSpec spec;
        std::string error;
        ASSERT_TRUE(parseSweepSpecFile(
            std::string(BSISA_SPECS_DIR) + "/" + figure.file, spec, error))
            << error;
        spec.scale = 2000;
        const std::string store = dir + "/" + figure.file;

        std::ostringstream log;
        ASSERT_TRUE(runSweepCoordinator(spec, {store}, log)) << log.str();
        std::ostringstream fromStore;
        ASSERT_TRUE(renderSweepFromStore(fromStore, spec, store, error))
            << error;

        ::setenv("BSISA_TIMING_MODEL", figure.timingModel, 1);
        std::ostringstream monolithic;
        figure.driver(monolithic);
        ::unsetenv("BSISA_TIMING_MODEL");
        EXPECT_FALSE(monolithic.str().empty()) << figure.file;
        EXPECT_EQ(fromStore.str(), monolithic.str()) << figure.file;
    }
}

namespace
{

/** @p bytes as hex digits (runInChild's strings hold no NUL byte). */
std::string
hexBytes(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 15];
    }
    return out;
}

} // namespace

// A sweep runs its whole plan as one PairSweep, whatever the spec's
// chunk_units, and appends each unit's record as it completes — in
// completion order, which at four jobs is not plan order.  The
// compacted snapshot must equal the one-job sweep's byte for byte,
// and each leg acquires each benchmark's trace exactly once (a cold
// capture into the leg's own trace store).  Each leg is a process of
// its own: the trace store's counters are process-wide.
TEST_F(SweepFixture, FourJobsMatchOneJobAndAcquireEachTraceOnce)
{
    const SweepSpec spec = mustParse(
        "name: one-sweep\n"
        "scale: 2000\n"
        "benchmarks: [compress, go, li]\n"
        "chunk_units: 1\n"
        "axes:\n"
        "  icache_kb: [16, 32, 64]\n");
    const auto leg = [&](const char *jobs) {
        return bsisatest::runInChild([&, jobs] {
            const std::string legDir = dir + "/jobs" + jobs;
            ::setenv("BSISA_JOBS", jobs, 1);
            ::setenv("BSISA_TRACE_DIR", (legDir + "/traces").c_str(), 1);
            TraceStore::resetStats();
            const std::string storeDir = legDir + "/results";
            std::ostringstream log;
            const bool complete =
                runSweepCoordinator(spec, {storeDir}, log);
            const TraceStoreStats stats = TraceStore::stats();
            return std::vector<std::string>{
                std::to_string(complete) + " " + log.str(),
                std::to_string(stats.coldCaptures) + " " +
                    std::to_string(stats.warmLoads),
                hexBytes(readFileBytes(storeDir + "/snapshot.bsr"))};
        });
    };
    const std::vector<std::string> serial = leg("1");
    const std::vector<std::string> parallel = leg("4");
    ASSERT_EQ(serial.size(), 3u);
    ASSERT_EQ(parallel.size(), 3u);
    for (const auto *out : {&serial, &parallel}) {
        EXPECT_EQ((*out)[0], "1 sweep: units=9 executed=9 warm=0\n");
        EXPECT_EQ((*out)[1], "3 0");    // 3 cold captures, no reloads
    }
    EXPECT_FALSE(serial[2].empty());
    EXPECT_EQ(serial[2], parallel[2]);
}

// PairSweep runs its batches longest first (lanes x trace events), so
// batches of very different sizes start out of plan order; the results
// must not depend on it, nor on the worker count, and must equal
// one-point sweeps of each config.
TEST_F(SweepFixture, PairSweepResultsIgnoreBatchOrderAndJobs)
{
    SweepPlan plan;
    std::string error;
    ASSERT_TRUE(buildPlan(mustParse("name: batches\n"
                                    "scale: 2000\n"
                                    "benchmarks: [compress, go, vortex]\n"),
                          0, plan, error))
        << error;
    std::vector<ExecTrace> traces;
    for (std::size_t b = 0; b < plan.benches.size(); ++b)
        traces.push_back(
            captureTrace(plan.modules[b], plan.benches[b].limits));

    // compress: one 4-lane batch per machine; go: a lone point;
    // vortex: one 2-lane conventional batch and two one-lane
    // block-structured batches (distinct enlargements).
    std::vector<std::pair<std::size_t, RunConfig>> points;
    for (unsigned kb : {16u, 32u, 64u, 128u}) {
        RunConfig config = plan.units[plan.pointUnit[0]].config;
        config.machine.icache.sizeBytes = kb * 1024;
        points.emplace_back(0, config);
    }
    points.emplace_back(1, plan.units[plan.pointUnit[1]].config);
    for (unsigned faults : {1u, 2u}) {
        RunConfig config = plan.units[plan.pointUnit[2]].config;
        config.enlarge.maxFaults = faults;
        points.emplace_back(2, config);
    }

    const auto sweepAt = [&](const char *jobs, std::size_t &batches) {
        ::setenv("BSISA_JOBS", jobs, 1);
        PairSweep sweep;
        for (std::size_t b = 0; b < plan.benches.size(); ++b)
            sweep.addBenchmark(plan.modules[b], heldTrace(traces[b]));
        for (const auto &[bench, config] : points)
            sweep.addPoint(bench, config);
        const std::vector<PairResult> results = sweep.run();
        batches = sweep.batchCount();
        ::unsetenv("BSISA_JOBS");
        return results;
    };
    std::size_t serialBatches = 0, parallelBatches = 0;
    const std::vector<PairResult> serial = sweepAt("1", serialBatches);
    const std::vector<PairResult> parallel =
        sweepAt("4", parallelBatches);
    EXPECT_EQ(serialBatches, 7u);
    EXPECT_EQ(parallelBatches, 7u);
    ASSERT_EQ(serial.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(serial[i] == parallel[i]);
        const auto &[bench, config] = points[i];
        EXPECT_TRUE(serial[i] ==
                    runPair(plan.modules[bench], config, traces[bench]));
    }
}

namespace
{

/** A mixed-width grid over three benchmarks, as in specs/ci-grid64.yml:
 *  per benchmark one 4-lane conventional batch and two 2-lane
 *  block-structured batches (one per enlarge_max_faults value).  Each
 *  source counts the traces held at once; every benchmark gets the
 *  same weight, so the batch order alone decides residency. */
struct CountedGrid
{
    SweepPlan plan;
    std::vector<ExecTrace> traces;
    int held = 0;
    int peak = 0;
    int acquired = 0;

    CountedGrid()
    {
        std::string error;
        EXPECT_TRUE(buildPlan(mustParse("name: residency\n"
                                        "scale: 2000\n"
                                        "benchmarks: [compress, go, li]\n"
                                        "axes:\n"
                                        "  icache_kb: [16, 64]\n"
                                        "  enlarge_max_faults: [1, 2]\n"),
                              0, plan, error))
            << error;
        for (std::size_t b = 0; b < plan.benches.size(); ++b)
            traces.push_back(
                captureTrace(plan.modules[b], plan.benches[b].limits));
    }

    /** Register every unit; the counters are plain ints, so run the
     *  sweep at BSISA_JOBS=1 (inline on this thread). */
    void
    addTo(PairSweep &sweep)
    {
        std::vector<std::size_t> units(plan.units.size());
        std::iota(units.begin(), units.end(), std::size_t(0));
        addUnitPoints(sweep, plan, units, [&](std::size_t b) {
            const auto acquire = [this, b] {
                ++acquired;
                peak = std::max(peak, ++held);
                return std::shared_ptr<const ExecTrace>(
                    &traces[b], [this](const ExecTrace *) { --held; });
            };
            return sweep.addBenchmark(plan.modules[b], {1000, acquire});
        });
    }
};

} // namespace

// PairSweep claims batches benchmark-major, so at one job a
// benchmark's trace is dropped before the next one's is acquired:
// longest-first order across benchmarks would run every wide
// conventional batch before the narrow block-structured ones and hold
// all three traces.
TEST_F(SweepFixture, PairSweepHoldsOneTraceAtATimeAtOneJob)
{
    CountedGrid grid;
    ::setenv("BSISA_JOBS", "1", 1);
    PairSweep sweep;
    grid.addTo(sweep);
    sweep.run();
    ::unsetenv("BSISA_JOBS");
    EXPECT_EQ(sweep.batchCount(), 9u);
    EXPECT_EQ(grid.acquired, 3);
    EXPECT_EQ(grid.peak, 1);
    EXPECT_EQ(grid.held, 0);
}

// run()'s callback reports each point once, with its final result,
// after both of its batches; a false return stops the sweep before
// its next batch, so no other benchmark's trace is acquired.
TEST_F(SweepFixture, PairSweepReportsEachPointOnceAndStopsOnFalse)
{
    CountedGrid grid;
    ::setenv("BSISA_JOBS", "1", 1);
    PairSweep full;
    grid.addTo(full);
    std::vector<int> reports(grid.plan.units.size(), 0);
    full.run([&](std::size_t point, const PairResult &result) {
        ++reports[point];
        const WorkUnit &unit = grid.plan.units[point];
        EXPECT_TRUE(result == runPair(grid.plan.modules[unit.bench],
                                      unit.config,
                                      grid.traces[unit.bench]))
            << point;
        return true;
    });
    EXPECT_EQ(reports, std::vector<int>(reports.size(), 1));

    grid.acquired = 0;
    PairSweep stopped;
    grid.addTo(stopped);
    std::size_t calls = 0;
    stopped.run([&](std::size_t, const PairResult &) {
        ++calls;
        return false;
    });
    ::unsetenv("BSISA_JOBS");
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(grid.acquired, 1);
    EXPECT_EQ(grid.held, 0);
}
