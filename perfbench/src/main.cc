/**
 * @file
 * bsisa_perfbench: the repository benchmark's measuring binary.
 *
 * One run measures one workload (workloads.hh):
 *
 *   1. set-up, repeated, each sample timed (setup_s is their median);
 *   2. untraced passes until --seconds have elapsed, each in a fresh
 *      child process, as a user runs a figure driver or a sweep:
 *      wall_s, sim_mops and peak_rss_mb are medians over the passes;
 *   3. --trace 1 only: one traced set-up plus one traced pass in this
 *      process, whose spans give the per-layer metrics and are
 *      written as a Chrome trace and a flat per-layer summary.
 *
 * Every pass checks its outputs against the goldens.  The last stdout
 * line is the result object; failures to measure at all (bad build,
 * bad BSISA_JOBS, missing golden, unwritable directory) exit with
 * status 3 and print no result.  run.py builds this binary and owns
 * its working directory.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/figures.hh"
#include "sim/trace_store.hh"
#include "spans.hh"
#include "support/env.hh"
#include "support/simd_dispatch.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{
namespace
{

/** Set-up samples taken before the passes (design-sweep adds one per
 *  pass on top). */
constexpr int setUpSamples = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;
    std::string benchDir = "perfbench";
    std::string goldenDir;  //!< default: <benchDir>/golden/<workload>
    std::string outDir;     //!< trace and result files; empty = none
    std::string revision = "unknown";
    std::string passState;  //!< non-empty: run one child pass
    bool writeGoldens = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    throw std::runtime_error(
        why + "\nusage: bsisa_perfbench --workload NAME --seed N "
              "--seconds S --trace 0|1 --work-dir DIR [--bench-dir DIR] "
              "[--golden-dir DIR] [--out-dir DIR] [--revision REV] "
              "[--write-goldens]");
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--write-goldens") {
            o.writeGoldens = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[++i];
        if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::stoull(v);
        else if (arg == "--seconds")
            o.seconds = std::stod(v);
        else if (arg == "--trace")
            o.trace = v == "1";
        else if (arg == "--work-dir")
            o.workDir = v;
        else if (arg == "--bench-dir")
            o.benchDir = v;
        else if (arg == "--golden-dir")
            o.goldenDir = v;
        else if (arg == "--out-dir")
            o.outDir = v;
        else if (arg == "--revision")
            o.revision = v;
        else if (arg == "--pass-state")
            o.passState = v;
        else
            usage("unknown option " + arg);
    }
    if (std::find(workloadNames.begin(), workloadNames.end(),
                  o.workload) == workloadNames.end())
        usage("unknown workload '" + o.workload + "'");
    if (o.workDir.empty())
        usage("--work-dir is required");
    if (o.goldenDir.empty())
        o.goldenDir = o.benchDir + "/golden/" + o.workload;
    return o;
}

unsigned
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return unsigned(CPU_COUNT(&set));
}

/** Refuse to measure anything but an optimized build with an
 *  explicit worker count that the CPUs can serve. */
unsigned
checkGuards()
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    if (buildType.empty() || buildType == "Debug")
        throw std::runtime_error("refusing to measure a '" + buildType +
                                 "' build; build RelWithDebInfo or "
                                 "Release");
    const unsigned nproc = cpuCount();
    const std::uint64_t jobs = bsisa::envU64("BSISA_JOBS", 0);
    if (jobs == 0)
        throw std::runtime_error("BSISA_JOBS must be set explicitly");
    if (jobs > nproc)
        throw std::runtime_error(
            "BSISA_JOBS=" + std::to_string(jobs) + " exceeds the " +
            std::to_string(nproc) + " CPUs this process may use");
    return unsigned(jobs);
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    return out + "}";
}

std::string
provenanceJson(const Options &o, unsigned jobs)
{
    return "{\"workload\": " + jsonString(o.workload) +
           ", \"seed\": " + std::to_string(o.seed) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"simd_kernel\": " +
           jsonString(bsisa::simdKernels().name) +
           ", \"bsisa_jobs\": " + std::to_string(jobs) +
           ", \"nproc\": " + std::to_string(cpuCount()) +
           ", \"scale\": " + std::to_string(bsisa::scaleDivisor()) +
           ", \"revision\": " + jsonString(o.revision) + "}";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out.write(text.data(), std::streamsize(text.size())))
        throw std::runtime_error("cannot write " + path);
}

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    add(const PassResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        problems.insert(problems.end(), r.problems.begin(),
                        r.problems.end());
    }
};

/** Child mode: one pass on the adopted state; reports on stdout for
 *  the parent. */
int
runChildPass(const Options &o, Workload &w)
{
    w.adopt(o.passState);
    const PassResult r = w.runPass();
    std::printf("pass %llu %llu %.17g\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), r.wallSeconds);
    for (const std::string &p : r.problems)
        std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());
    return 0;
}

struct ChildPass
{
    double wallSeconds = 0.0;
    double peakRssMiB = 0.0;
};

/** Run one pass on @p state in a fresh copy of this binary; adds its
 *  operations to @p tally. */
ChildPass
runPassInChild(const Options &o, const std::string &state,
               std::uint64_t seed, Tally &tally)
{
    const std::string self =
        std::filesystem::read_symlink("/proc/self/exe").string();
    std::vector<std::string> args = {
        self,          "--workload",   o.workload,
        "--seed",      std::to_string(seed),
        "--seconds",   "0",
        "--trace",     "0",
        "--work-dir",  o.workDir,
        "--bench-dir", o.benchDir,
        "--golden-dir", o.goldenDir,
        "--pass-state", state};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw std::runtime_error("cannot spawn a pass process");
    }
    std::string out;
    char buf[256];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
        out.append(buf, std::size_t(n));
    ::close(fds[0]);
    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("a pass process failed");

    unsigned long long attempted = 0, failed = 0;
    ChildPass pass;
    if (std::sscanf(out.c_str(), "pass %llu %llu %lf", &attempted,
                    &failed, &pass.wallSeconds) != 3)
        throw std::runtime_error("a pass process printed no result");
    tally.attempted += attempted;
    tally.failed += failed;
    if (failed)
        tally.problems.push_back("pass with seed " +
                                 std::to_string(seed) + ": " +
                                 std::to_string(failed) +
                                 " operations failed");
    pass.peakRssMiB = double(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
    return pass;
}

double
layerSeconds(const TraceSummary &s, const char *name)
{
    const LayerTotals *l = s.find(name);
    return l ? l->selfSeconds : 0.0;
}

double
layerCalls(const TraceSummary &s, const char *name)
{
    const LayerTotals *l = s.find(name);
    return l ? double(l->calls) : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The per-layer metrics of one traced run (BENCHMARK.json order). */
std::vector<Metric>
layerMetrics(const TraceSummary &s, const LayerCounters &c,
             double overhead, std::uint64_t fallbacks,
             double failRatio)
{
    std::vector<Metric> m;
    // Layer spans: busy seconds summed over threads, and call counts.
    const char *layers[] = {
        "workloads.generate", "trace_store.digest", "trace_store.load",
        "sim.capture",        "core.enlarge",       "codegen.layout",
        "sim.decode",         "sim.pipeline",       "sim.lockstep",
        "sim.ooo",            "exp.spec.parse",     "exp.plan.build",
        "exp.result_store.append", "exp.result_store.compact",
        "exp.render"};
    for (const char *l : layers) {
        m.push_back({std::string(l) + "_s", "s", layerSeconds(s, l)});
        m.push_back({std::string(l) + ".calls", "count",
                     layerCalls(s, l)});
    }
    const double capture = layerSeconds(s, "sim.capture");
    const double lockstep = layerSeconds(s, "sim.lockstep");
    const double ooo = layerSeconds(s, "sim.ooo");
    m.push_back({"trace_store.warm_loads", "count",
                 layerCalls(s, "trace_store.load")});
    m.push_back({"trace_store.cold_captures", "count",
                 layerCalls(s, "sim.capture")});
    m.push_back({"trace_store.fallbacks", "count", double(fallbacks)});
    m.push_back({"trace_store.write_bytes", "B", double(c.writeBytes)});
    m.push_back({"sim.capture_mops", "Mop/s",
                 ratio(double(c.capturedOps) * 1e-6, capture)});
    m.push_back({"sim.pipeline.conv_mops", "Mop/s",
                 ratio(double(c.convPipelineOps) * 1e-6,
                       c.convPipelineSeconds)});
    m.push_back({"sim.pipeline.bsa_mops", "Mop/s",
                 ratio(double(c.bsaPipelineOps) * 1e-6,
                       c.bsaPipelineSeconds)});
    m.push_back({"sim.lockstep.prepass_s", "s",
                 c.lockstepPrepassSeconds});
    m.push_back({"sim.lockstep.walk_s", "s", c.lockstepWalkSeconds});
    m.push_back({"sim.lockstep.lane_mops", "Mop/s",
                 ratio(double(c.lockstepLaneOps) * 1e-6, lockstep)});
    m.push_back({"sim.lockstep.mean_batch_lanes", "lanes",
                 ratio(double(c.lockstepLaneSteps),
                       double(c.lockstepBatches))});
    m.push_back({"sim.lockstep.memo_hit_ratio", "ratio",
                 c.memoLookups ? 1.0 - double(c.memoComputes) /
                                           double(c.memoLookups)
                               : 0.0});
    m.push_back({"sim.lockstep.fused_ratio", "ratio",
                 ratio(double(c.lockstepFusedRuns),
                       double(c.lockstepRuns))});
    m.push_back({"sim.ooo.mops", "Mop/s",
                 ratio(double(c.oooOps) * 1e-6, ooo)});
    m.push_back({"exp.plan.units", "count", double(c.planUnits)});
    m.push_back({"exp.result_store.appends", "count",
                 double(c.appends)});
    m.push_back({"trace.overhead_s", "s", overhead});
    m.push_back({"trace.unattributed_s", "s", s.unattributedSeconds});
    // Simulated-machine statistics over every SimResult of the pass.
    m.push_back({"model.conv.ipc", "op/cycle",
                 ratio(double(c.conv.retiredOps),
                       double(c.conv.cycles))});
    m.push_back({"model.bsa.ipc", "op/cycle",
                 ratio(double(c.bsa.retiredOps), double(c.bsa.cycles))});
    m.push_back({"model.bsa.avg_block_ops", "op",
                 ratio(double(c.bsa.retiredOps),
                       double(c.bsa.retiredUnits))});
    m.push_back({"model.conv.mispredict_rate", "ratio",
                 ratio(double(c.conv.mispredicts),
                       double(c.conv.predictions))});
    m.push_back({"model.bsa.mispredict_rate", "ratio",
                 ratio(double(c.bsa.mispredicts),
                       double(c.bsa.predictions))});
    m.push_back({"model.bsa.icache_miss_rate", "ratio",
                 ratio(double(c.bsa.icacheMisses),
                       double(c.bsa.icacheAccesses))});
    m.push_back({"model.bsa.stall_redirect_frac", "ratio",
                 ratio(double(c.bsa.stallRedirect),
                       double(c.bsa.cycles))});
    m.push_back({"model.bsa_reduction_pct", "%",
                 c.pairConvCycles
                     ? 100.0 * (1.0 - double(c.pairBsaCycles) /
                                          double(c.pairConvCycles))
                     : 0.0});
    m.push_back({"fail_ratio", "ratio", failRatio});
    return m;
}

std::string
layerTableJson(const TraceSummary &s)
{
    std::string out = "[";
    for (std::size_t i = 0; i < s.layers.size(); ++i) {
        const LayerTotals &l = s.layers[i];
        out += std::string(i ? ",\n  " : "\n  ") + "{\"layer\": " +
               jsonString(l.name) +
               ", \"calls\": " + std::to_string(l.calls) +
               ", \"busy_s\": " + number(l.busySeconds) +
               ", \"self_s\": " + number(l.selfSeconds) +
               ", \"wall_self_s\": " + number(l.wallSeconds) + "}";
    }
    return out + "\n]";
}

int
run(const Options &o)
{
    const unsigned jobs = checkGuards();
    RunContext ctx;
    ctx.workDir = o.workDir;
    ctx.goldenDir = o.goldenDir;
    ctx.specPath = o.benchDir + "/specs/design-sweep.yml";
    ctx.seed = o.seed;
    ctx.writeGoldens = o.writeGoldens;
    const std::unique_ptr<Workload> w = makeWorkload(o.workload, ctx);
    if (!o.passState.empty())
        return runChildPass(o, *w);

    Tally tally;
    LayerCounters untraced;
    if (o.writeGoldens) {
        // Goldens come from the drivers; the traced rebuild must then
        // reproduce them (and pins the committed-op count).
        w->setUp(untraced);
        tally.add(w->runPass());
        LayerCounters counters;
        w->setUp(counters);
        tally.add(w->runTracedPass(counters));
        for (const std::string &p : tally.problems)
            std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());
        std::printf("wrote goldens to %s (%llu operations, %llu failed)\n",
                    o.goldenDir.c_str(),
                    static_cast<unsigned long long>(tally.attempted),
                    static_cast<unsigned long long>(tally.failed));
        return tally.failed ? 1 : 0;
    }

    const std::uint64_t retiredOps = w->retiredOps();
    std::vector<double> setUps;
    for (int i = 0; i < setUpSamples; ++i)
        setUps.push_back(w->setUp(untraced));

    std::vector<double> walls;
    std::vector<double> mops;
    std::vector<double> rss;
    const auto start = Clock::now();
    do {
        if (w->setUpEachPass() && !walls.empty())
            setUps.push_back(w->setUp(untraced));
        // Each pass gets its own seed (its own driver order), derived
        // from the run's.
        const ChildPass pass = runPassInChild(
            o, w->stateDir(), o.seed * 1000003 + walls.size(), tally);
        walls.push_back(pass.wallSeconds);
        mops.push_back(double(retiredOps) * 1e-6 / pass.wallSeconds);
        rss.push_back(pass.peakRssMiB);
    } while (std::chrono::duration<double>(Clock::now() - start)
                 .count() < o.seconds);
    const double wallMedian = median(walls);

    std::vector<Metric> metrics;
    std::string summaryJson;
    if (!o.trace) {
        metrics = {{"wall_s", "s", wallMedian},
                   {"sim_mops", "Mop/s", median(mops)},
                   {"peak_rss_mb", "MiB", median(rss)},
                   {"setup_s", "s", median(setUps)}};
    } else {
        SpanLog log;
        LayerCounters counters;
        const std::uint64_t fallback0 =
            bsisa::TraceStore::stats().fallbacks;
        setActiveLog(&log);
        const std::int64_t begin = log.now();
        {
            Span span("setup", false);
            w->setUp(counters);
        }
        const PassResult r = w->runTracedPass(counters);
        const std::int64_t end = log.now();
        setActiveLog(nullptr);
        tally.add(r);

        const std::vector<SpanRecord> spans = log.records();
        const TraceSummary s = summarize(spans, begin, end);
        double attributed = s.unattributedSeconds;
        for (const LayerTotals &l : s.layers)
            attributed += l.wallSeconds;
        if (std::fabs(attributed - s.wallSeconds) >
            1e-9 * std::max(1.0, s.wallSeconds)) {
            ++tally.failed;
            tally.problems.push_back(
                "layer wall shares plus unattributed time do not sum "
                "to the traced wall time");
        }
        metrics = layerMetrics(
            s, counters, r.wallSeconds - wallMedian,
            bsisa::TraceStore::stats().fallbacks - fallback0,
            ratio(double(tally.failed), double(tally.attempted)));
        summaryJson = ", \"traced_wall_s\": " + number(s.wallSeconds) +
                      ", \"traced_pass_s\": " + number(r.wallSeconds) +
                      ", \"untraced_median_s\": " + number(wallMedian) +
                      ", \"unattributed_s\": " +
                      number(s.unattributedSeconds) +
                      ",\n \"layers\": " + layerTableJson(s);
        if (!o.outDir.empty())
            writeChromeTrace(o.outDir + "/" + o.workload + "-seed" +
                                 std::to_string(o.seed) + ".trace.json",
                             spans);
    }

    const double failRatio =
        ratio(double(tally.failed), double(tally.attempted));
    const std::string provenance = provenanceJson(o, jobs);
    if (!o.outDir.empty())
        writeFile(o.outDir + "/" + o.workload + "-seed" +
                      std::to_string(o.seed) +
                      (o.trace ? ".summary.json" : ".result.json"),
                  "{\"provenance\": " + provenance +
                      ", \"passes\": " + std::to_string(walls.size()) +
                      ", \"attempted\": " +
                      std::to_string(tally.attempted) +
                      ", \"failed\": " + std::to_string(tally.failed) +
                      summaryJson +
                      ",\n \"metrics\": " + metricsJson(metrics) +
                      "}\n");

    for (const std::string &p : tally.problems)
        std::printf("FAIL %s\n", p.c_str());
    std::printf("provenance %s\n", provenance.c_str());
    std::vector<double> sorted = walls;
    std::sort(sorted.begin(), sorted.end());
    std::printf("wall_s median %s over %zu passes (min %s, max %s)\n",
                number(wallMedian).c_str(), sorted.size(),
                number(sorted.front()).c_str(),
                number(sorted.back()).c_str());
    // The highest percentile with at least ten samples beyond it.
    if (sorted.size() > 10)
        std::printf("wall_s p%s %s (10 of %zu samples beyond it)\n",
                    number(100.0 * double(sorted.size() - 10) /
                           double(sorted.size()))
                        .c_str(),
                    number(sorted[sorted.size() - 11]).c_str(),
                    sorted.size());
    else
        std::printf("wall_s: no percentile has ten samples beyond it "
                    "in %zu passes\n",
                    sorted.size());
    std::printf("setup_s median %s over %zu set-ups\n",
                number(median(setUps)).c_str(), setUps.size());
    std::printf("fail_ratio %s (%llu of %llu operations failed)\n",
                number(failRatio).c_str(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("wall_s samples");
    for (double v : walls)
        std::printf(" %s", number(v).c_str());
    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("  %-36s %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.failed ? "false" : "true",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                metricsJson(metrics).c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseOptions(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 3;
    }
}
