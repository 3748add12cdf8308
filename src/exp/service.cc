/**
 * @file
 * Sweep-service implementation: the in-process sweep, store
 * rendering, and status/listing output.
 */

#include "exp/service.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "exp/figures.hh"
#include "exp/result_store.hh"
#include "sim/trace_store.hh"
#include "support/env.hh"
#include "support/lockfile.hh"
#include "support/parallel.hh"
#include "support/parse.hh"
#include "support/table.hh"
#include "workloads/specmix.hh"

namespace bsisa
{

namespace
{

std::string
planMarkerPath(const std::string &storeDir, std::uint64_t specDigest)
{
    return storeDir + "/plan-" + hex16(specDigest) + ".plan";
}

/** The completion marker: "units N" then one hex unit key per line.
 *  A marker with a malformed line, or without exactly N keys, reads
 *  as absent.  Nothing is sized from N, so a corrupt count cannot
 *  exhaust memory. */
bool
readPlanMarker(const std::string &path,
               std::vector<std::uint64_t> &keys)
{
    std::ifstream in(path);
    std::string line;
    std::uint64_t count = 0;
    if (!std::getline(in, line) || !line.starts_with("units ") ||
        !parseNumber(std::string_view(line).substr(6), count))
        return false;
    keys.clear();
    while (std::getline(in, line)) {
        std::uint64_t key = 0;
        if (!parseNumber(line, key, 16))
            return false;
        keys.push_back(key);
    }
    return keys.size() == count;
}

void
writePlanMarker(const std::string &path, const SweepPlan &plan)
{
    std::ostringstream os;
    os << "units " << plan.units.size() << "\n";
    for (const WorkUnit &unit : plan.units)
        os << hex16(unit.key) << "\n";
    publishFile(path, os.str());
}

/** Test hook: BSISA_SWEEP_STALL_AFTER=K parks the sweep forever
 *  after its K-th published record, inside the append mutex, so no
 *  worker publishes another (the crash-resume test SIGKILLs a sweep
 *  parked mid-grid at a known checkpoint). */
void
maybeStall(std::size_t published, std::ostream &log)
{
    const std::uint64_t stallAfter =
        envU64("BSISA_SWEEP_STALL_AFTER", 0);
    if (stallAfter == 0 || published != stallAfter)
        return;
    log << "sweep: stalled" << std::endl;
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(60));
}

/** What one sweep counted. */
struct SweepCounts
{
    std::size_t units = 0;     //!< plan size
    std::size_t executed = 0;  //!< units simulated + published here
    std::size_t warm = 0;      //!< units already stored at the start
};

/** The sweep on @p store's handle, which keeps the writer lock; true
 *  when every unit of the plan is stored. */
bool
sweepInto(ResultStore &store, const SweepSpec &spec,
          const SweepRunOptions &opts, std::ostream &log,
          SweepCounts &counts)
{
    std::error_code dirEc;
    std::filesystem::create_directories(opts.storeDir, dirEc);
    std::string error;
    if (!store.lockWriter(error)) {
        log << "sweep: " << error << "\n";
        return false;
    }
    store.refresh();

    // Warm fast path: a completion marker whose units the store
    // fully covers proves this exact spec already ran — skip plan
    // building (module generation included).
    const std::string markerPath =
        planMarkerPath(opts.storeDir, specDigest(spec));
    std::vector<std::uint64_t> markerKeys;
    if (readPlanMarker(markerPath, markerKeys)) {
        const bool covered = std::all_of(
            markerKeys.begin(), markerKeys.end(),
            [&](std::uint64_t key) { return store.contains(key); });
        if (covered) {
            counts.units = markerKeys.size();
            counts.warm = markerKeys.size();
            return true;
        }
    }

    SweepPlan plan;
    if (!buildPlan(spec, 0, plan, error)) {
        log << "sweep: " << error << "\n";
        return false;
    }
    std::vector<std::size_t> pending;
    for (std::size_t u = 0; u < plan.units.size(); ++u)
        if (!store.contains(plan.units[u].key))
            pending.push_back(u);
    counts.units = plan.units.size();
    counts.warm = counts.units - pending.size();

    // Every pending unit runs in one PairSweep.  A benchmark's trace
    // is acquired — through the BSISA_TRACE_DIR store when configured
    // — when its first batch starts and dropped after its last; each
    // unit's record is appended, under one mutex, as soon as both its
    // batches are done.
    PairSweep sweep;
    addUnitPoints(sweep, plan, pending, [&](std::size_t b) {
        return sweep.addBenchmark(
            plan.modules[b],
            {plan.benches[b].limits.maxOps, [&plan, b] {
                 return std::make_shared<const ExecTrace>(
                     captureOrLoadTrace(plan.modules[b],
                                        plan.benches[b].moduleDigest,
                                        plan.benches[b].limits));
             }});
    });
    std::mutex appendMutex;
    sweep.run([&](std::size_t k, const PairResult &result) {
        std::lock_guard<std::mutex> lock(appendMutex);
        const WorkUnit &unit = plan.units[pending[k]];
        if (!store.append(makeResultRecord(unit.key, unit.moduleDigest,
                                           unit.configDigest, result))) {
            // The store went unwritable mid-run (disk full, directory
            // removed): stop rather than simulate units that cannot
            // persist.
            log << "sweep: failed to persist unit " << hex16(unit.key)
                << "; aborting\n";
            return false;
        }
        ++counts.executed;
        maybeStall(counts.executed, log);
        return true;
    });
    // A sweep that stopped early reported fewer units than it had.
    if (counts.executed != pending.size())
        return false;
    writePlanMarker(markerPath, plan);
    return true;
}

} // namespace

bool
runSweepCoordinator(const SweepSpec &spec, const SweepRunOptions &opts,
                    std::ostream &log)
{
    ResultStore store(opts.storeDir);
    SweepCounts counts;
    const bool complete = sweepInto(store, spec, opts, log, counts);
    log << "sweep: units=" << counts.units << " executed="
        << counts.executed << " warm=" << counts.warm << "\n";
    return complete && store.compact();
}

bool
renderSweepFromStore(std::ostream &os, const SweepSpec &spec,
                     const std::string &storeDir, std::string &error)
{
    SweepPlan plan;
    if (!buildPlan(spec, 0, plan, error))
        return false;
    ResultStore store(storeDir);
    store.refresh();
    for (const WorkUnit &unit : plan.units) {
        if (!store.contains(unit.key)) {
            error = "results store is missing unit " +
                    hex16(unit.key) + " (benchmark " +
                    plan.benches[unit.bench].name + "); run the "
                    "sweep first";
            return false;
        }
    }

    if (spec.figure != "none") {
        // Parse validation guarantees one grid point per benchmark.
        std::vector<PairResult> results;  // by unit
        for (const WorkUnit &unit : plan.units)
            results.push_back(store.find(unit.key)->pair);
        renderFigure(os, plan, results);
        return true;
    }

    // Generic grid rendering: one row per grid point, plan order.
    os << "Sweep '" << spec.name << "': "
       << spec.pointsPerBenchmark() << " configs x "
       << plan.benches.size() << " benchmarks, " << plan.units.size()
       << " work units\n\n";
    Table t({"Benchmark", "Unit", "Conv (cycles)", "BSA (cycles)",
             "Reduction"});
    const std::uint64_t perBench = spec.pointsPerBenchmark();
    for (std::size_t p = 0; p < plan.gridPoints(); ++p) {
        const WorkUnit &unit = plan.units[plan.pointUnit[p]];
        const ResultRecord *record = store.find(unit.key);
        t.addRow({plan.benches[p / perBench].name, hex16(unit.key),
                  Table::fmtSep(record->pair.conv.cycles),
                  Table::fmtSep(record->pair.bsa.cycles),
                  Table::fmt(100.0 * record->pair.reduction(), 1) +
                      "%"});
    }
    t.print(os);
    return true;
}

bool
printSweepStatus(std::ostream &os, const std::string &storeDir)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(storeDir, ec))
        return false;
    ResultStore store(storeDir);
    const ResultScanStats stats = store.refresh();
    os << "results store: " << storeDir << "\n";
    Table t({"records", "duplicates", "torn tails", "bad shards",
             "shard files"});
    t.addRow({Table::fmt(stats.records), Table::fmt(stats.duplicates),
              Table::fmt(stats.tornTails), Table::fmt(stats.badShards),
              Table::fmt(stats.shardFiles)});
    t.print(os);
    if (const std::string foreign = store.foreignFile(); !foreign.empty())
        os << "writers refuse this store: " << foreign << "\n";

    // What the writer lock's file proves without taking the lock: a
    // holder writes its pid once it holds the lock, so a pid that has
    // exited holds nothing, but a live one may not hold it either.
    const std::string lock = store.lockPath();
    os << "writer: ";
    if (!std::filesystem::exists(lock, ec)) {
        os << "none\n";
    } else if (const std::uint64_t pid = leaseHolderPid(lock); pid == 0) {
        os << "writer.lock names no pid\n";
    } else {
        os << "writer.lock names pid " << pid
           << (processAlive(pid) ? "" : " (exited)") << "\n";
    }

    // Plan markers.
    std::vector<std::string> markers;
    std::filesystem::directory_iterator it(storeDir, ec);
    if (!ec) {
        for (const auto &de : it) {
            if (!de.is_regular_file(ec) || ec)
                continue;
            if (de.path().extension() == ".plan")
                markers.push_back(de.path().string());
        }
    }
    std::sort(markers.begin(), markers.end());
    for (const std::string &path : markers) {
        std::vector<std::uint64_t> keys;
        if (!readPlanMarker(path, keys))
            continue;
        std::size_t present = 0;
        for (std::uint64_t key : keys)
            if (store.contains(key))
                ++present;
        os << "plan: "
           << std::filesystem::path(path).filename().string() << " "
           << present << "/" << keys.size() << " units stored\n";
    }

    const TraceStore traceStore = TraceStore::fromEnv();
    if (traceStore.enabled()) {
        os << "\n";
        printTraceStoreListing(os, traceStore.directory());
    }
    return true;
}

void
printTraceStoreListing(std::ostream &os, const std::string &dir)
{
    const std::vector<TraceStoreEntryInfo> entries =
        listTraceStore(dir);
    os << "trace store: " << dir << " (" << entries.size()
       << " entries)\n";
    if (entries.empty())
        return;

    // Map module digests back to benchmark names through the suite's
    // digests (the store only records digests — content addressing
    // cuts both ways).
    const auto suite = specint95Suite();
    std::vector<std::uint64_t> digests(suite.size());
    parallelFor(suite.size(),
                [&](std::size_t i) { digests[i] = suiteModuleDigest(i); });

    Table t({"key", "benchmark", "max ops", "events", "bytes"});
    std::uint64_t totalBytes = 0;
    for (const TraceStoreEntryInfo &info : entries) {
        const std::string key =
            std::filesystem::path(info.path).stem().string();
        totalBytes += info.fileBytes;
        const char *unusable =
            !info.headerOk ? "(corrupt header)"
            : info.header.formatVersion != traceStoreFormatVersion ||
                    info.header.interpVersionTag != interpVersion
                ? "(stale version)"
                : nullptr;
        if (unusable) {
            t.addRow({key, unusable, "-", "-",
                      Table::fmtSep(info.fileBytes)});
            continue;
        }
        std::string bench = "(unknown)";
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (digests[i] == info.header.moduleDigest) {
                bench = suite[i].params.name;
                break;
            }
        }
        t.addRow({key, bench, Table::fmtSep(info.header.maxOps),
                  Table::fmtSep(info.header.eventCount),
                  Table::fmtSep(info.fileBytes)});
    }
    t.print(os);
    os << "total: " << Table::fmtSep(totalBytes) << " bytes\n";
}

} // namespace bsisa
