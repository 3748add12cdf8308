/**
 * @file
 * Workload passes, set-ups and golden checks.
 */

#include "workloads.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "exp/result_store.hh"
#include "exp/service.hh"
#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "spans.hh"
#include "support/digest.hh"
#include "workloads/specmix.hh"

namespace perfbench
{

using namespace bsisa;
namespace fs = std::filesystem;

namespace
{

std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Every field of a driver's returned outcomes, doubles exact. */
std::string
outcomeValues(const std::vector<BenchOutcome> &outcomes)
{
    std::ostringstream os;
    for (const BenchOutcome &o : outcomes)
        os << o.name << ' ' << o.convCycles << ' ' << o.bsaCycles << ' '
           << hexFloat(o.convBlockSize) << ' '
           << hexFloat(o.bsaBlockSize) << ' '
           << hexFloat(o.convIcacheMissRate) << ' '
           << hexFloat(o.bsaIcacheMissRate) << ' ' << o.dynOps << '\n';
    return os.str();
}

std::string
rowValues(const std::vector<IcacheSweepRow> &rows)
{
    std::ostringstream os;
    for (const IcacheSweepRow &row : rows) {
        os << row.name;
        for (double v : row.relativeIncrease)
            os << ' ' << hexFloat(v);
        os << '\n';
    }
    return os.str();
}

void
setTraceDir(const std::string &dir)
{
    ::setenv("BSISA_TRACE_DIR", dir.c_str(), 1);
}

/** Write back the dirty pages of @p dir's filesystem (the previous
 *  pass's stores, their deletion, a new store) before timing starts,
 *  so one pass's disk writeback does not land inside the next. */
void
flushWrites(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        throw std::runtime_error("cannot open " + dir);
    ::syncfs(fd);
    ::close(fd);
}

void
freshDirectory(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (!fs::create_directories(dir, ec) || ec)
        throw std::runtime_error("cannot create " + dir);
}

/** One operation of a figure workload: a driver users run, and its
 *  traced rebuild.  Both return the driver's values; the driver
 *  renders to the stream, and so does the rebuild when the driver's
 *  render function is public. */
struct FigureOp
{
    const char *name;
    std::string (*driver)(std::ostream &);
    std::string (*rebuild)(std::ostream &, LayerCounters &);
    bool rebuildRenders;
};

const FigureOp table2Op{
    "table2",
    [](std::ostream &os) { return outcomeValues(printTable2(os)); },
    [](std::ostream &, LayerCounters &c) {
        return outcomeValues(tracedTable2(c));
    },
    false};
const FigureOp fig3Op{
    "fig3",
    [](std::ostream &os) {
        return outcomeValues(runCycleComparison(os, false));
    },
    [](std::ostream &os, LayerCounters &c) {
        return outcomeValues(tracedPairFigure(os, false, false, c));
    },
    true};
const FigureOp fig4Op{
    "fig4",
    [](std::ostream &os) {
        return outcomeValues(runCycleComparison(os, true));
    },
    [](std::ostream &os, LayerCounters &c) {
        return outcomeValues(tracedPairFigure(os, true, false, c));
    },
    true};
const FigureOp fig5Op{
    "fig5",
    [](std::ostream &os) {
        return outcomeValues(runBlockSizeComparison(os));
    },
    [](std::ostream &os, LayerCounters &c) {
        return outcomeValues(tracedPairFigure(os, false, true, c));
    },
    true};
const FigureOp fig6Op{
    "fig6",
    [](std::ostream &os) { return rowValues(runIcacheSweep(os, false)); },
    [](std::ostream &, LayerCounters &c) {
        return rowValues(tracedIcacheSweep(false, c));
    },
    false};
const FigureOp fig7Op{
    "fig7",
    [](std::ostream &os) { return rowValues(runIcacheSweep(os, true)); },
    [](std::ostream &, LayerCounters &c) {
        return rowValues(tracedIcacheSweep(true, c));
    },
    false};

/** paper-figures and ooo-fig3: driver calls on a warm trace store. */
class FigureWorkload : public Workload
{
  public:
    FigureWorkload(const RunContext &ctx, std::vector<FigureOp> ops)
        : Workload(ctx), ops(std::move(ops))
    {
    }

    /** Fill a new store from empty with the suite's traces. */
    double
    setUp(LayerCounters &counters) override
    {
        if (!store.empty())
            fs::remove_all(store);
        store = ctx.workDir + "/store-" + std::to_string(setUps++);
        freshDirectory(store);
        setTraceDir(store);
        const TraceStoreStats before = TraceStore::stats();
        const std::vector<std::size_t> order =
            permutation(specint95Suite().size());
        const auto t0 = Clock::now();
        fillSuiteStore(order, counters);
        const double secs = secondsSince(t0);
        flushWrites(store);
        const TraceStoreStats after = TraceStore::stats();
        if (after.coldCaptures - before.coldCaptures != order.size() ||
            after.fallbacks != before.fallbacks)
            throw std::runtime_error("set-up did not fill " + store +
                                     " from empty");
        return secs;
    }

    bool setUpEachPass() const override { return false; }

    PassResult runPass() override { return pass(nullptr); }

    PassResult
    runTracedPass(LayerCounters &counters) override
    {
        Span span("pass", false);
        PassResult r = pass(&counters);
        span.end();
        std::lock_guard<std::mutex> lock(counters.mutex);
        checkRetiredOps(counters.conv.retiredOps +
                            counters.bsa.retiredOps,
                        r);
        return r;
    }

    std::string stateDir() const override { return store; }

    void
    adopt(const std::string &dir) override
    {
        store = dir;
        setTraceDir(store);
    }

  private:
    /** The ops in this pass's order; traced when @p counters is set.
     *  A warm pass must replay every trace from the store. */
    PassResult
    pass(LayerCounters *counters)
    {
        PassResult r;
        for (std::size_t k : permutation(ops.size())) {
            const FigureOp &op = ops[k];
            const std::uint64_t interp0 = interpInvocations();
            const std::uint64_t fallback0 = TraceStore::stats().fallbacks;
            std::ostringstream text;
            std::string values;
            std::string error;
            const auto t0 = Clock::now();
            try {
                Span span(op.name, false);
                values = counters ? op.rebuild(text, *counters)
                                  : op.driver(text);
            } catch (const std::exception &e) {
                error = e.what();
            }
            r.wallSeconds += secondsSince(t0);

            const std::string name = op.name;
            std::vector<std::string> why;
            if (!error.empty())
                why.push_back("raised: " + error);
            if (!goldens.match(name + ".values", values))
                why.push_back("values differ from golden");
            if ((!counters || op.rebuildRenders) &&
                !goldens.match(name + ".txt", text.str()))
                why.push_back("rendered text differs from golden");
            if (interpInvocations() != interp0)
                why.push_back("ran live functional executions");
            if (TraceStore::stats().fallbacks != fallback0)
                why.push_back("trace-store entries were rejected");
            ++r.attempted;
            if (!why.empty()) {
                ++r.failed;
                for (const std::string &w : why)
                    r.problems.push_back(name + ": " + w);
            }
        }
        return r;
    }

    std::vector<FigureOp> ops;
    std::string store;
};

/** design-sweep: the sweep service in-process on empty stores. */
class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(const RunContext &ctx) : Workload(ctx)
    {
        std::string error;
        if (!parseSweepSpecFile(ctx.specPath, baseSpec, error))
            throw std::runtime_error(ctx.specPath + ": " + error);
    }

    /**
     * Prepare one pass as a user prepares a sweep: write the pass's
     * spec, preview its plan as `bsisa-sweep plan` does, and create an
     * empty trace store and an empty results store.  The pass's spec
     * is the file's grid with its axis order permuted by the seed;
     * unit keys are content addresses and the snapshot is sorted by
     * key, so no output may move.  (Creating the stores alone takes
     * about 50 microseconds, a time that moved by 40% with host load
     * between runs.)
     */
    double
    setUp(LayerCounters &) override
    {
        if (!dir.empty())
            fs::remove_all(dir);
        dir = ctx.workDir + "/sweep-" + std::to_string(setUps++);
        flushWrites(ctx.workDir);
        SweepSpec spec = baseSpec;
        for (auto &axis : spec.axes) {
            std::vector<std::string> values;
            for (std::size_t i : permutation(axis.second.size()))
                values.push_back(axis.second[i]);
            axis.second = values;
        }
        if (nextRandom() & 1)
            std::reverse(spec.axes.begin(), spec.axes.end());
        const std::string specText = canonicalSpec(spec);

        const auto t0 = Clock::now();
        freshDirectory(dir + "/traces");
        freshDirectory(dir + "/results");
        {
            std::ofstream out(dir + "/spec.yml");
            out << specText;
        }
        SweepSpec parsed;
        SweepPlan plan;
        std::string error;
        bool ok = false;
        {
            Span span("exp.spec.parse");
            ok = parseSweepSpecFile(dir + "/spec.yml", parsed, error);
        }
        if (ok) {
            Span span("exp.plan.build");
            ok = buildPlan(parsed, 0, plan, error);
        }
        if (!ok)
            throw std::runtime_error("pass spec: " + error);
        if (plan.units.size() !=
            baseSpec.pointsPerBenchmark() * plan.benches.size())
            throw std::runtime_error(
                "the permuted spec's work units collapsed");
        {
            ResultStore results(dir + "/results");
            results.refresh();
        }
        const double secs = secondsSince(t0);
        setTraceDir(dir + "/traces");
        return secs;
    }

    bool setUpEachPass() const override { return true; }

    PassResult
    runPass() override
    {
        const std::uint64_t fallback0 = TraceStore::stats().fallbacks;
        const auto t0 = Clock::now();
        SweepSpec spec;
        std::string error;
        bool ok = parseSweepSpecFile(dir + "/spec.yml", spec, error);
        if (ok) {
            SweepRunOptions opts;
            opts.storeDir = dir + "/results";
            std::ostringstream log;
            ok = runSweepCoordinator(spec, opts, log);
        }
        const double wall = secondsSince(t0);
        PassResult r = verify(ok, fallback0);
        r.wallSeconds = wall;
        return r;
    }

    PassResult
    runTracedPass(LayerCounters &counters) override
    {
        const std::uint64_t fallback0 = TraceStore::stats().fallbacks;
        const auto t0 = Clock::now();
        Span span("pass", false);
        const bool ok =
            tracedSweep(dir + "/spec.yml", dir + "/results", counters);
        span.end();
        const double wall = secondsSince(t0);
        PassResult r = verify(ok, fallback0);
        r.wallSeconds = wall;
        std::lock_guard<std::mutex> lock(counters.mutex);
        checkRetiredOps(counters.conv.retiredOps +
                            counters.bsa.retiredOps,
                        r);
        return r;
    }

    std::string stateDir() const override { return dir; }

    void
    adopt(const std::string &stateDir) override
    {
        dir = stateDir;
        setTraceDir(dir + "/traces");
    }

  private:
    /** One operation per work unit: a unit fails when its compacted
     *  record differs from the golden or is missing; every unit fails
     *  when the sweep did not complete, a trace entry was rejected,
     *  or the snapshot differs while every record matches. */
    PassResult
    verify(bool completed, std::uint64_t fallback0)
    {
        PassResult r;
        std::map<std::string, std::string> expected;
        {
            std::istringstream in(goldens.read("units.txt"));
            std::string key, digest;
            while (in >> key >> digest)
                expected[key] = digest;
        }

        ResultStore store(dir + "/results");
        store.refresh();
        std::ostringstream units;
        std::map<std::string, std::string> actual;
        std::uint64_t ops = 0;
        for (std::uint64_t key : store.keys()) {
            const ResultRecord *rec = store.find(key);
            const std::string digest = hex16(fnv1a64(rec, sizeof(*rec)));
            units << hex16(key) << ' ' << digest << '\n';
            actual[hex16(key)] = digest;
            ops += rec->pair.conv.retiredOps + rec->pair.bsa.retiredOps;
        }
        const bool unitsMatch = goldens.match("units.txt", units.str());
        if (ctx.writeGoldens)
            expected = actual;

        r.attempted = expected.size();
        for (const auto &[key, digest] : expected) {
            const auto it = actual.find(key);
            if (it == actual.end() || it->second != digest) {
                ++r.failed;
                r.problems.push_back("unit " + key +
                                     (it == actual.end()
                                          ? ": missing"
                                          : ": record differs"));
            }
        }

        std::string snapshot;
        {
            std::ifstream in(dir + "/results/snapshot.bsr",
                             std::ios::binary);
            snapshot.assign(std::istreambuf_iterator<char>(in), {});
        }
        const bool snapshotMatches = goldens.match(
            "snapshot.digest",
            "fnv1a64 " + hex16(fnv1a64(snapshot)) + " bytes " +
                std::to_string(snapshot.size()) + "\n");
        const bool opsMatch =
            goldens.match("retired_ops", std::to_string(ops) + "\n");

        std::string whole;
        if (!completed)
            whole = "sweep did not complete";
        else if (TraceStore::stats().fallbacks != fallback0)
            whole = "trace-store entries were rejected";
        else if (!snapshotMatches)
            whole = "snapshot.bsr differs from golden";
        else if (!unitsMatch)
            whole = "unit list differs from golden";
        else if (!opsMatch)
            whole = "retired ops differ from golden";
        if (!whole.empty()) {
            r.failed = r.attempted;
            r.problems.push_back(whole);
        }
        return r;
    }

    SweepSpec baseSpec;
    std::string dir;
};

} // namespace

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Goldens::Goldens(std::string dir, bool writing)
    : dir(std::move(dir)), writing(writing)
{
}

std::string
Goldens::read(const std::string &name) const
{
    const std::string path = dir + "/" + name;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (writing)
            return "";
        throw std::runtime_error("missing golden " + path);
    }
    return std::string(std::istreambuf_iterator<char>(in), {});
}

bool
Goldens::match(const std::string &name, const std::string &actual)
{
    if (writing && written.insert(name).second) {
        std::error_code ec;
        fs::create_directories(dir, ec);
        std::ofstream out(dir + "/" + name, std::ios::binary);
        if (!out.write(actual.data(), std::streamsize(actual.size())))
            throw std::runtime_error("cannot write golden " + name);
        return true;
    }
    return read(name) == actual;
}

Workload::Workload(const RunContext &ctx)
    : ctx(ctx), goldens(ctx.goldenDir, ctx.writeGoldens),
      rngState(ctx.seed)
{
}

std::uint64_t
Workload::retiredOps() const
{
    return std::strtoull(goldens.read("retired_ops").c_str(), nullptr,
                         10);
}

void
Workload::checkRetiredOps(std::uint64_t ops, PassResult &r)
{
    if (goldens.match("retired_ops", std::to_string(ops) + "\n"))
        return;
    r.failed = r.attempted;
    r.problems.push_back("traced pass committed " + std::to_string(ops) +
                         " ops, golden retired_ops differs");
}

std::uint64_t
Workload::nextRandom()
{
    // splitmix64: a fixed, portable stream per seed.
    std::uint64_t z = (rngState += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
Workload::permutation(std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[nextRandom() % i]);
    return p;
}

const std::vector<std::string> workloadNames = {
    "paper-figures", "design-sweep", "ooo-fig3"};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunContext &ctx)
{
    if (name == "paper-figures")
        return std::make_unique<FigureWorkload>(
            ctx, std::vector<FigureOp>{table2Op, fig3Op, fig4Op, fig5Op,
                                       fig6Op, fig7Op});
    if (name == "design-sweep")
        return std::make_unique<SweepWorkload>(ctx);
    if (name == "ooo-fig3") {
        // figures.cc routes BSISA_TIMING_MODEL through every driver's
        // base config; this process runs nothing else.
        ::setenv("BSISA_TIMING_MODEL", "ooo", 1);
        return std::make_unique<FigureWorkload>(
            ctx, std::vector<FigureOp>{fig3Op});
    }
    throw std::runtime_error("unknown workload '" + name + "'");
}

} // namespace perfbench
