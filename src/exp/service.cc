/**
 * @file
 * Sweep-service implementation: worker loop, process coordinator,
 * store rendering, and status/listing output.
 */

#include "exp/service.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define BSISA_HAVE_FORK 1
#else
#define BSISA_HAVE_FORK 0
#endif

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

std::string
leasePath(const std::string &storeDir, std::uint64_t chunkKey)
{
    return storeDir + "/lease-" + hex16(chunkKey) + ".lease";
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

/** Probe that @p dir accepts file creation.  A worker whose store is
 *  unwritable can make no progress, but the wait loop cannot tell
 *  "every chunk leased by a peer" from "every write fails" — so
 *  writability is checked once up front instead. */
bool
storeWritable(const std::string &dir)
{
    const std::string probe =
        dir + "/.probe-" + std::to_string(currentProcessId());
    {
        std::ofstream out(probe, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
    }
    std::remove(probe.c_str());
    return true;
}

/** Test hook: BSISA_SWEEP_STALL_AFTER=K parks the worker forever
 *  after its K-th published record (the crash-resume test SIGKILLs a
 *  worker parked mid-grid at a known checkpoint). */
void
maybeStall(std::size_t published, std::ostream *log)
{
    const std::uint64_t stallAfter =
        envU64("BSISA_SWEEP_STALL_AFTER", 0);
    if (stallAfter == 0 || published != stallAfter)
        return;
    if (log)
        *log << "sweep-worker: stalled" << std::endl;
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(60));
}

} // namespace

SweepWorkerOutcome
runSweepWorker(const SweepSpec &spec, const SweepWorkerOptions &opts)
{
    SweepWorkerOutcome outcome;
    // The store directory must exist before the first lease attempt:
    // a failed O_CREAT on a missing directory is indistinguishable
    // from a held lease, and two workers each waiting for the other
    // to create the directory would spin forever.
    std::error_code dirEc;
    std::filesystem::create_directories(opts.storeDir, dirEc);
    if (dirEc || !storeWritable(opts.storeDir)) {
        if (opts.log)
            *opts.log << "sweep-worker: store directory "
                      << opts.storeDir << " is not writable\n";
        return outcome;
    }
    ResultStore store(opts.storeDir);
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
            outcome.units = markerKeys.size();
            outcome.warm = markerKeys.size();
            outcome.complete = true;
            return outcome;
        }
    }

    SweepPlan plan;
    std::string error;
    if (!buildPlan(spec, opts.chunkOverride, plan, error)) {
        if (opts.log)
            *opts.log << "sweep-worker: " << error << "\n";
        return outcome;
    }
    outcome.units = plan.units.size();
    for (const WorkUnit &unit : plan.units)
        if (store.contains(unit.key))
            ++outcome.warm;

    // One functional trace per benchmark, acquired on first need —
    // through the BSISA_TRACE_DIR store when configured, so
    // concurrent workers share warm captures — and dropped once no
    // later chunk of the scan belongs to its benchmark.  A round
    // acquires its traces in parallel, so each flag is a whole byte:
    // std::vector<bool> packs flags into shared words.
    std::vector<ExecTrace> traces(plan.benches.size());
    std::vector<char> haveTrace(plan.benches.size(), 0);
    const auto ensureTrace = [&](std::size_t b) {
        if (haveTrace[b])
            return;
        traces[b] = captureOrLoadTrace(plan.modules[b],
                                       plan.benches[b].moduleDigest,
                                       plan.benches[b].limits);
        haveTrace[b] = 1;
    };
    // Chunks are benchmark-major; a trace is dropped once the scan
    // has passed its benchmark's last chunk.
    std::vector<std::size_t> lastChunk(plan.benches.size(), 0);
    for (std::size_t c = 0; c < plan.chunks.size(); ++c)
        lastChunk[plan.units[plan.chunks[c].front()].bench] = c;
    const auto dropTracesThrough = [&](std::size_t scanned) {
        for (std::size_t b = 0; b < traces.size(); ++b) {
            if (haveTrace[b] && lastChunk[b] <= scanned) {
                traces[b] = ExecTrace();
                haveTrace[b] = 0;
            }
        }
    };

    struct LeasedChunk
    {
        FileLease lease;
        std::vector<std::size_t> pending;  //!< unit indices
    };
    // Simulate a round of leased chunks as one PairSweep — its
    // missing traces acquired in one parallelFor, lockstep batching by
    // the planner's usual grouping rules — then publish the records in
    // lease order, releasing each chunk's lease right after its last
    // record.  False when a record could not be persisted.
    const auto runRound = [&](std::vector<LeasedChunk> &round) {
        std::vector<std::size_t> benches;  // distinct, lease order
        for (const LeasedChunk &chunk : round) {
            const std::size_t b = plan.units[chunk.pending.front()].bench;
            if (std::find(benches.begin(), benches.end(), b) ==
                benches.end())
                benches.push_back(b);
        }
        parallelFor(benches.size(),
                    [&](std::size_t i) { ensureTrace(benches[i]); });

        PairSweep sweep;
        std::vector<std::size_t> handle(plan.benches.size());
        for (std::size_t b : benches)
            handle[b] = sweep.addBenchmark(plan.modules[b], traces[b]);
        for (const LeasedChunk &chunk : round)
            for (std::size_t u : chunk.pending)
                sweep.addPoint(handle[plan.units[u].bench],
                               plan.units[u].config);
        const std::vector<PairResult> &results = sweep.run();

        std::size_t point = 0;
        for (LeasedChunk &chunk : round) {
            for (std::size_t u : chunk.pending) {
                const WorkUnit &unit = plan.units[u];
                if (!store.append(makeResultRecord(
                        unit.key, unit.moduleDigest,
                        unit.configDigest, results[point++]))) {
                    // The store went unwritable mid-run (disk full,
                    // directory removed).  Abort rather than spin:
                    // unpersisted units stay pending forever from
                    // this process's point of view.
                    if (opts.log)
                        *opts.log << "sweep-worker: failed to "
                                     "persist unit "
                                  << hex16(unit.key)
                                  << "; aborting\n";
                    return false;
                }
                ++outcome.executed;
                maybeStall(outcome.executed, opts.log);
            }
            chunk.lease.release();
        }
        round.clear();
        return true;
    };

    // A round holds up to BSISA_JOBS chunks with pending units, so at
    // one job a worker leases, simulates, publishes and releases one
    // chunk at a time.
    const std::size_t roundChunks = parallelJobs();
    for (;;) {
        bool progress = false;
        bool anyPending = false;
        std::vector<LeasedChunk> round;
        for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
            std::vector<std::size_t> pending;
            for (std::size_t u : plan.chunks[c])
                if (!store.contains(plan.units[u].key))
                    pending.push_back(u);
            if (pending.empty())
                continue;
            anyPending = true;

            FileLease lease;
            if (!lease.tryAcquire(
                    leasePath(opts.storeDir, plan.chunkKeys[c]))) {
                ++outcome.peerSkips;
                continue;
            }

            // Double-check under the lease: the pending set above
            // was computed against a possibly stale index, and a
            // peer may have finished this chunk between our scan and
            // our acquisition of its just-released lease.
            store.refresh();
            pending.erase(
                std::remove_if(pending.begin(), pending.end(),
                               [&](std::size_t u) {
                                   return store.contains(
                                       plan.units[u].key);
                               }),
                pending.end());
            progress = true;
            if (pending.empty())
                continue;

            round.push_back({std::move(lease), std::move(pending)});
            if (round.size() == roundChunks) {
                if (!runRound(round))
                    return outcome;
                dropTracesThrough(c);
            }
        }
        if (!round.empty() && !runRound(round))
            return outcome;
        dropTracesThrough(plan.chunks.size());
        if (!anyPending) {
            outcome.complete = true;
            break;
        }
        if (!progress) {
            // Every pending chunk is leased by a live peer; wait for
            // its records (or its death) to show up.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
        store.refresh();
    }

    // A missing or unreadable marker is (re)written; a peer's valid
    // one is left alone.
    if (!readPlanMarker(markerPath, markerKeys))
        writePlanMarker(markerPath, plan);
    return outcome;
}

bool
runSweepCoordinator(const SweepSpec &spec, const SweepRunOptions &opts,
                    std::ostream &log)
{
#if BSISA_HAVE_FORK
    if (opts.workers > 1 && !opts.selfExe.empty() &&
        !opts.specPath.empty()) {
        std::vector<pid_t> children;
        for (unsigned w = 0; w < opts.workers; ++w) {
            const pid_t pid = ::fork();
            if (pid < 0) {
                log << "sweep: fork failed, continuing with "
                    << children.size() << " workers\n";
                break;
            }
            if (pid == 0) {
                std::vector<std::string> args = {
                    opts.selfExe, "worker", opts.specPath, "--store",
                    opts.storeDir};
                if (opts.chunkOverride) {
                    args.push_back("--chunk");
                    args.push_back(
                        std::to_string(opts.chunkOverride));
                }
                std::vector<char *> argv;
                for (std::string &arg : args)
                    argv.push_back(arg.data());
                argv.push_back(nullptr);
                ::execv(opts.selfExe.c_str(), argv.data());
                std::fprintf(stderr, "sweep: exec %s failed\n",
                             opts.selfExe.c_str());
                ::_exit(127);
            }
            children.push_back(pid);
        }
        for (pid_t pid : children) {
            int status = 0;
            if (::waitpid(pid, &status, 0) < 0)
                continue;
            if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
                // Not fatal: units are idempotent, so the in-process
                // pass below re-leases whatever the dead worker left
                // pending (this is the resume path).
                log << "sweep: worker " << pid
                    << " exited abnormally; resuming its units\n";
            }
        }
    }
#endif

    SweepWorkerOptions workerOpts;
    workerOpts.storeDir = opts.storeDir;
    workerOpts.chunkOverride = opts.chunkOverride;
    workerOpts.log = &log;
    const SweepWorkerOutcome outcome =
        runSweepWorker(spec, workerOpts);
    log << "sweep: units=" << outcome.units << " executed="
        << outcome.executed << " warm=" << outcome.warm
        << " workers=" << opts.workers << "\n";
    if (!outcome.complete)
        return false;

    ResultStore store(opts.storeDir);
    return store.compact();
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

    if (spec.figure == "cycles" || spec.figure == "blocksize") {
        // Parse validation guarantees one grid point per benchmark.
        std::vector<BenchOutcome> outcomes;
        for (std::size_t b = 0; b < plan.benches.size(); ++b) {
            const std::size_t unitId = plan.pointUnit[b];
            const ResultRecord *record =
                store.find(plan.units[unitId].key);
            outcomes.push_back(benchOutcomeOf(plan.benches[b].name,
                                              record->pair));
        }
        if (spec.figure == "cycles") {
            const bool perfect = plan.units[plan.pointUnit[0]]
                                     .config.machine.perfectPrediction;
            renderCycleComparison(os, outcomes, perfect);
        } else {
            renderBlockSizeComparison(os, outcomes);
        }
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

void
printSweepStatus(std::ostream &os, const std::string &storeDir)
{
    ResultStore store(storeDir);
    const ResultScanStats stats = store.refresh();
    os << "results store: " << storeDir << "\n";
    Table t({"records", "duplicates", "torn tails", "bad shards",
             "shard files"});
    t.addRow({Table::fmt(stats.records), Table::fmt(stats.duplicates),
              Table::fmt(stats.tornTails), Table::fmt(stats.badShards),
              Table::fmt(stats.shardFiles)});
    t.print(os);

    // Leases and plan markers.
    std::vector<std::string> leases, markers;
    std::error_code ec;
    std::filesystem::directory_iterator it(storeDir, ec);
    if (!ec) {
        for (const auto &de : it) {
            if (!de.is_regular_file(ec) || ec)
                continue;
            if (de.path().extension() == ".lease")
                leases.push_back(de.path().string());
            else if (de.path().extension() == ".plan")
                markers.push_back(de.path().string());
        }
    }
    std::sort(leases.begin(), leases.end());
    std::sort(markers.begin(), markers.end());
    for (const std::string &path : leases) {
        const std::uint64_t pid = leaseHolderPid(path);
        os << "lease: "
           << std::filesystem::path(path).filename().string();
        if (pid == 0) {
            // No holder to probe: workers honour it for the grace
            // period, then break it as stale.
            os << " malformed (honoured until its "
               << malformedLeaseGrace.count()
               << " s grace period ends)\n";
        } else {
            os << " holder pid " << pid << " ("
               << (processAlive(pid) ? "alive" : "dead") << ")\n";
        }
    }
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
        if (!info.headerOk) {
            t.addRow({key, "(corrupt header)", "-", "-",
                      Table::fmtSep(info.fileBytes)});
            totalBytes += info.fileBytes;
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
        totalBytes += info.fileBytes;
    }
    t.print(os);
    os << "total: " << Table::fmtSep(totalBytes) << " bytes\n";
}

} // namespace bsisa
