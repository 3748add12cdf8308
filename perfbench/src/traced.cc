/**
 * @file
 * Traced rebuilds of the figure drivers and the sweep service.
 *
 * Every function mirrors one caller in src/exp (named in its
 * comment); keep the call order and the parallelFor fan-out in step
 * with that caller, or the per-layer numbers stop describing the
 * untraced pass.  Outputs are checked against the goldens, so a
 * rebuild that drifts from its driver's results fails loudly.
 */

#include "traced.hh"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "codegen/layout.hh"
#include "exp/result_store.hh"
#include "exp/service.hh"
#include "sim/decoded.hh"
#include "sim/lockstep.hh"
#include "sim/trace_store.hh"
#include "support/env.hh"
#include "support/lockfile.hh"
#include "support/parallel.hh"
#include "workloads/specmix.hh"

namespace perfbench
{

using namespace bsisa;

void
SimTotals::add(const SimResult &r)
{
    cycles += r.cycles;
    retiredOps += r.retiredOps;
    retiredUnits += r.retiredUnits;
    predictions += r.predictions;
    mispredicts += r.mispredicts;
    stallRedirect += r.stallRedirect;
    icacheAccesses += r.icache.accesses;
    icacheMisses += r.icache.misses;
}

void
LayerCounters::addPair(const PairResult &r)
{
    std::lock_guard<std::mutex> lock(mutex);
    pairConvCycles += r.conv.cycles;
    pairBsaCycles += r.bsa.cycles;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string
hex16(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace
{

/** figures.cc baseConfig(). */
RunConfig
baseConfig(const SpecBenchmark &bench)
{
    RunConfig config;
    config.limits.maxOps = bench.scaledBudget(scaleDivisor());
    if (envString("BSISA_TIMING_MODEL", "abstract") == "ooo")
        config.machine.timingModel = TimingModel::Ooo;
    return config;
}

/** parallelFor whose tasks' spans hang off the caller's span. */
template <typename Fn>
void
tracedParallelFor(std::size_t n, Fn &&fn)
{
    const std::int32_t parent = currentSpan();
    parallelFor(n, [&](std::size_t i) {
        ParentScope scope(parent);
        fn(i);
    });
}

Module
generate(const WorkloadParams &params)
{
    Span span("workloads.generate");
    return generateWorkload(params);
}

std::uint64_t
digest(const Module &module)
{
    Span span("trace_store.digest");
    return moduleDigest(module);
}

/** TraceStore::load, spanned as a warm load or a cold capture (the
 *  capture and the entry write happen inside load). */
ExecTrace
load(const Module &module, std::uint64_t moduleHash,
     Interp::Limits limits, LayerCounters &counters)
{
    const TraceStore store = TraceStore::fromEnv();
    if (!store.enabled())
        throw std::runtime_error("BSISA_TRACE_DIR is not set");
    const std::string path =
        store.entryPath(TraceKey{moduleHash, limits.maxOps,
                                 limits.maxBlocks});
    std::error_code ec;
    const bool warm = std::filesystem::exists(path, ec);
    Span span(warm ? "trace_store.load" : "sim.capture");
    ExecTrace trace = store.load(module, moduleHash, limits);
    span.end();
    if (!warm) {
        const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
        std::lock_guard<std::mutex> lock(counters.mutex);
        counters.capturedOps += trace.dynOps;
        counters.writeBytes += ec ? 0 : bytes;
    }
    return trace;
}

/** runConventional / runBlockStructured on one config: the abstract
 *  pipeline or the OoO engine, decode and layout included. */
template <typename Run>
SimResult
singleton(const MachineConfig &machine, bool blockStructured,
          LayerCounters &counters, Run &&run)
{
    const bool ooo = machine.timingModel == TimingModel::Ooo;
    const auto t0 = Clock::now();
    Span span(ooo ? "sim.ooo" : "sim.pipeline");
    const SimResult r = run();
    span.end();
    const double secs = secondsSince(t0);
    std::lock_guard<std::mutex> lock(counters.mutex);
    if (ooo) {
        counters.oooOps += r.retiredOps;
    } else if (blockStructured) {
        counters.bsaPipelineOps += r.retiredOps;
        counters.bsaPipelineSeconds += secs;
    } else {
        counters.convPipelineOps += r.retiredOps;
        counters.convPipelineSeconds += secs;
    }
    (blockStructured ? counters.bsa : counters.conv).add(r);
    return r;
}

void
noteLockstep(const std::vector<SimResult> &sims, bool blockStructured,
             LayerCounters &counters)
{
    const LockstepFetchStats &fs = lockstepLastFetchStats();
    std::lock_guard<std::mutex> lock(counters.mutex);
    ++counters.lockstepRuns;
    counters.lockstepFusedRuns += fs.fused ? 1 : 0;
    counters.lockstepPrepassSeconds += fs.fetchSeconds;
    counters.lockstepWalkSeconds += fs.timingSeconds;
    counters.lockstepBatches += fs.timingBatches;
    counters.lockstepLaneSteps += fs.timingLaneSteps;
    counters.memoLookups += fs.memoLookups;
    counters.memoComputes += fs.memoComputes;
    for (const SimResult &r : sims) {
        counters.lockstepLaneOps += r.retiredOps;
        (blockStructured ? counters.bsa : counters.conv).add(r);
    }
}

void
requireAbstract(const std::vector<MachineConfig> &machines)
{
    for (const MachineConfig &m : machines)
        if (m.timingModel == TimingModel::Ooo)
            throw std::logic_error(
                "no workload runs multi-lane OoO batches");
}

/** runner.cc runConventionalBatch (all-abstract lanes). */
std::vector<SimResult>
convBatch(const Module &module,
          const std::vector<MachineConfig> &machines,
          const ExecTrace &trace, LayerCounters &counters)
{
    if (machines.size() == 1)
        return {singleton(machines[0], false, counters, [&] {
            return runConventional(module, machines[0], trace);
        })};
    requireAbstract(machines);
    const ConvLayout layout = [&] {
        Span span("codegen.layout");
        return ConvLayout(module);
    }();
    const DecodedProgram decoded = [&] {
        Span span("sim.decode");
        return DecodedProgram::forModule(module);
    }();
    Span span("sim.lockstep");
    std::vector<SimResult> sims =
        lockstepConventional(module, layout, decoded, machines, trace);
    span.end();
    noteLockstep(sims, false, counters);
    return sims;
}

/** runner.cc runBlockStructuredBatch (all-abstract lanes). */
std::vector<SimResult>
bsaBatch(const BsaModule &bsa, const std::vector<MachineConfig> &machines,
         const ExecTrace &trace, LayerCounters &counters)
{
    if (machines.size() == 1)
        return {singleton(machines[0], true, counters, [&] {
            return runBlockStructured(bsa, machines[0], trace);
        })};
    requireAbstract(machines);
    const DecodedProgram decoded = [&] {
        Span span("sim.decode");
        return DecodedProgram::forBsa(bsa);
    }();
    Span span("sim.lockstep");
    std::vector<SimResult> sims =
        lockstepBlockStructured(bsa, decoded, machines, trace);
    span.end();
    noteLockstep(sims, true, counters);
    return sims;
}

/** enlargeModule + layoutBsaModule, as PairSweep::runBatch and the
 *  icache drivers do before a block-structured run. */
BsaModule
enlargeAndLayout(const Module &module, const EnlargeConfig &config,
                 EnlargeStats *stats, std::uint64_t &codeBytes)
{
    BsaModule bsa = [&] {
        Span span("core.enlarge");
        return enlargeModule(module, config, nullptr, stats);
    }();
    Span span("codegen.layout");
    codeBytes = layoutBsaModule(bsa);
    return bsa;
}

/** One benchmark of a PairSweep: shared inputs plus its points. */
struct SweepBench
{
    const Module *module;
    const ExecTrace *trace;
    std::vector<RunConfig> configs;
};

/**
 * PairSweep::plan + runBatch for the grids the workloads run: every
 * point of a benchmark shares one timing model and one enlargement,
 * so each benchmark is one conventional batch then one
 * block-structured batch, all fanned out by one parallelFor.
 */
std::vector<std::vector<PairResult>>
pairSweep(const std::vector<SweepBench> &benches,
          LayerCounters &counters)
{
    std::vector<std::vector<PairResult>> results(benches.size());
    for (std::size_t b = 0; b < benches.size(); ++b) {
        results[b].resize(benches[b].configs.size());
        for (const RunConfig &c : benches[b].configs)
            if (c.machine.timingModel !=
                    benches[b].configs[0].machine.timingModel ||
                c.minMergeBias > 0.0)
                throw std::logic_error(
                    "grid outside the rebuilt PairSweep shapes");
    }

    tracedParallelFor(2 * benches.size(), [&](std::size_t task) {
        const SweepBench &bench = benches[task / 2];
        std::vector<PairResult> &out = results[task / 2];
        std::vector<MachineConfig> machines;
        for (const RunConfig &c : bench.configs)
            machines.push_back(c.machine);

        if (task % 2 == 0) {
            const ConvLayout layout = [&] {
                Span span("codegen.layout");
                return ConvLayout(*bench.module);
            }();
            const std::vector<SimResult> sims =
                convBatch(*bench.module, machines, *bench.trace,
                          counters);
            for (std::size_t i = 0; i < out.size(); ++i) {
                out[i].convCodeBytes = layout.totalBytes();
                out[i].dynOps = bench.trace->dynOps;
                out[i].conv = sims[i];
            }
            return;
        }
        EnlargeStats stats;
        std::uint64_t codeBytes = 0;
        const BsaModule bsa = enlargeAndLayout(
            *bench.module, bench.configs[0].enlarge, &stats, codeBytes);
        const std::vector<SimResult> sims =
            bsaBatch(bsa, machines, *bench.trace, counters);
        for (std::size_t i = 0; i < out.size(); ++i) {
            out[i].enlarge = stats;
            out[i].bsaCodeBytes = codeBytes;
            out[i].bsa = sims[i];
        }
    });
    for (const std::vector<PairResult> &bench : results)
        for (const PairResult &r : bench)
            counters.addPair(r);
    return results;
}

/** figures.cc generateSuiteModules. */
std::vector<Module>
generateSuite(const std::vector<SpecBenchmark> &suite)
{
    std::vector<Module> modules(suite.size());
    tracedParallelFor(suite.size(), [&](std::size_t i) {
        modules[i] = generate(suite[i].params);
    });
    return modules;
}

/** figures.cc captureSuiteTraces at full budget (suiteDigests, then
 *  the loads). */
std::vector<ExecTrace>
loadSuiteTraces(const std::vector<SpecBenchmark> &suite,
                const std::vector<Module> &modules,
                LayerCounters &counters)
{
    std::vector<std::uint64_t> digests(modules.size());
    tracedParallelFor(modules.size(), [&](std::size_t i) {
        digests[i] = digest(modules[i]);
    });
    std::vector<ExecTrace> traces(suite.size());
    tracedParallelFor(suite.size(), [&](std::size_t i) {
        traces[i] = load(modules[i], digests[i],
                         baseConfig(suite[i]).limits, counters);
    });
    return traces;
}

} // namespace

void
fillSuiteStore(const std::vector<std::size_t> &order,
               LayerCounters &counters)
{
    const auto suite = specint95Suite();
    tracedParallelFor(order.size(), [&](std::size_t k) {
        const SpecBenchmark &bench = suite[order[k]];
        const Module module = generate(bench.params);
        load(module, digest(module), baseConfig(bench).limits, counters);
    });
}

std::vector<BenchOutcome>
tracedTable2(LayerCounters &counters)
{
    // figures.cc printTable2.
    const auto suite = specint95Suite();
    std::vector<BenchOutcome> outcomes(suite.size());
    tracedParallelFor(suite.size(), [&](std::size_t i) {
        const Module m = generate(suite[i].params);
        Interp::Limits limits;
        limits.maxOps = suite[i].scaledBudget(scaleDivisor());
        const ExecTrace trace = load(m, digest(m), limits, counters);
        outcomes[i].name = suite[i].params.name;
        outcomes[i].dynOps = trace.dynOps;
    });
    return outcomes;
}

std::vector<BenchOutcome>
tracedPairFigure(std::ostream &os, bool perfectPrediction,
                 bool blockSizes, LayerCounters &counters)
{
    // figures.cc runCycleComparison / runBlockSizeComparison.
    const auto suite = specint95Suite();
    const std::vector<Module> modules = generateSuite(suite);
    const std::vector<ExecTrace> traces =
        loadSuiteTraces(suite, modules, counters);

    std::vector<SweepBench> benches;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        RunConfig config = baseConfig(suite[i]);
        config.machine.perfectPrediction = perfectPrediction;
        benches.push_back({&modules[i], &traces[i], {config}});
    }
    const auto results = pairSweep(benches, counters);

    std::vector<BenchOutcome> outcomes;
    for (std::size_t i = 0; i < suite.size(); ++i)
        outcomes.push_back(
            benchOutcomeOf(suite[i].params.name, results[i][0]));
    Span span("exp.render");
    if (blockSizes)
        renderBlockSizeComparison(os, outcomes);
    else
        renderCycleComparison(os, outcomes, perfectPrediction);
    return outcomes;
}

std::vector<IcacheSweepRow>
tracedIcacheSweep(bool blockStructured, LayerCounters &counters)
{
    // figures.cc runIcacheSweep (its table rendering is inline in the
    // driver, so the rebuild returns the rows it renders).
    const auto suite = specint95Suite();
    const std::size_t nsizes = icacheSizesKB.size();
    std::vector<std::uint64_t> baseCycles(suite.size());
    std::vector<std::uint64_t> cycles(suite.size() * nsizes);
    tracedParallelFor(suite.size(), [&](std::size_t bi) {
        const Module m = generate(suite[bi].params);
        RunConfig ideal = baseConfig(suite[bi]);
        ideal.machine.icache.perfect = true;
        const ExecTrace trace =
            load(m, digest(m), ideal.limits, counters);

        std::vector<MachineConfig> machines{ideal.machine};
        for (unsigned kb : icacheSizesKB) {
            RunConfig config = baseConfig(suite[bi]);
            config.machine.icache.sizeBytes = kb * 1024;
            machines.push_back(config.machine);
        }
        std::vector<SimResult> sims;
        if (blockStructured) {
            std::uint64_t codeBytes = 0;
            const BsaModule bsa =
                enlargeAndLayout(m, ideal.enlarge, nullptr, codeBytes);
            sims = bsaBatch(bsa, machines, trace, counters);
        } else {
            sims = convBatch(m, machines, trace, counters);
        }
        baseCycles[bi] = sims[0].cycles;
        for (std::size_t si = 0; si < nsizes; ++si)
            cycles[bi * nsizes + si] = sims[1 + si].cycles;
    });

    std::vector<IcacheSweepRow> rows;
    for (std::size_t bi = 0; bi < suite.size(); ++bi) {
        IcacheSweepRow row;
        row.name = suite[bi].params.name;
        for (std::size_t si = 0; si < nsizes; ++si)
            row.relativeIncrease.push_back(
                double(cycles[bi * nsizes + si]) /
                    double(baseCycles[bi]) -
                1.0);
        rows.push_back(row);
    }
    return rows;
}

bool
tracedSweep(const std::string &specPath, const std::string &storeDir,
            LayerCounters &counters)
{
    SweepSpec spec;
    std::string error;
    {
        Span span("exp.spec.parse");
        if (!parseSweepSpecFile(specPath, spec, error))
            return false;
    }

    // service.cc runSweepWorker, as the coordinator's one in-process
    // worker on a fresh store: no plan marker exists yet, so it
    // builds the plan; the marker it writes at the end and its
    // writability probe are left out (neither feeds the results).
    {
        std::error_code ec;
        std::filesystem::create_directories(storeDir, ec);
        ResultStore store(storeDir);
        store.refresh();

        SweepPlan plan;
        {
            Span span("exp.plan.build");
            if (!buildPlan(spec, 0, plan, error))
                return false;
        }
        {
            std::lock_guard<std::mutex> lock(counters.mutex);
            counters.planUnits += plan.units.size();
        }

        std::vector<ExecTrace> traces(plan.benches.size());
        std::vector<bool> haveTrace(plan.benches.size(), false);
        for (;;) {
            bool anyPending = false;
            for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
                std::vector<std::size_t> pending;
                for (std::size_t u : plan.chunks[c])
                    if (!store.contains(plan.units[u].key))
                        pending.push_back(u);
                if (pending.empty())
                    continue;
                anyPending = true;

                FileLease lease;
                if (!lease.tryAcquire(storeDir + "/lease-" +
                                      hex16(plan.chunkKeys[c]) +
                                      ".lease"))
                    return false;  // no peer exists to hold it
                store.refresh();

                const std::size_t b = plan.units[pending.front()].bench;
                if (!haveTrace[b]) {
                    traces[b] = load(plan.modules[b],
                                     plan.benches[b].moduleDigest,
                                     plan.benches[b].limits, counters);
                    haveTrace[b] = true;
                }
                SweepBench bench{&plan.modules[b], &traces[b], {}};
                for (std::size_t u : pending)
                    bench.configs.push_back(plan.units[u].config);
                const auto results = pairSweep({bench}, counters);

                for (std::size_t i = 0; i < pending.size(); ++i) {
                    const WorkUnit &unit = plan.units[pending[i]];
                    Span span("exp.result_store.append");
                    if (!store.append(makeResultRecord(
                            unit.key, unit.moduleDigest,
                            unit.configDigest, results[0][i])))
                        return false;
                    span.end();
                    std::lock_guard<std::mutex> lock(counters.mutex);
                    ++counters.appends;
                }
            }
            if (!anyPending)
                break;
            store.refresh();
        }
    }

    // service.cc runSweepCoordinator: compact once the worker's
    // store handle (and its shard) is closed.
    ResultStore store(storeDir);
    Span span("exp.result_store.compact");
    return store.compact();
}

} // namespace perfbench
