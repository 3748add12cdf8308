/**
 * @file
 * Experiment runner implementation.
 */

#include "exp/runner.hh"

#include "codegen/layout.hh"
#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/lockstep.hh"
#include "sim/ooo/ooo.hh"
#include "sim/pipeline.hh"
#include "sim/tc_source.hh"
#include "sim/trace_store.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace bsisa
{

namespace
{

/** Hand @p source to the backend config.machine selects: the paper's
 *  abstract window model or the out-of-order engine (sim/ooo). */
SimResult
simulateModel(FetchSource &source, const MachineConfig &machine)
{
    return machine.timingModel == TimingModel::Ooo
               ? simulateOoO(source, machine)
               : simulatePipeline(source, machine);
}

bool
anyOoo(const std::vector<MachineConfig> &machines)
{
    for (const MachineConfig &m : machines)
        if (m.timingModel == TimingModel::Ooo)
            return true;
    return false;
}

} // namespace

SimResult
runConventional(const Module &module, const MachineConfig &machine,
                Interp::Limits limits)
{
    return runConventional(module, machine,
                           captureTrace(module, limits));
}

SimResult
runConventional(const Module &module, const MachineConfig &machine,
                const ExecTrace &trace)
{
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    ConvFetchSource source(module, layout, machine, trace, decoded);
    return simulateModel(source, machine);
}

SimResult
runBlockStructured(const BsaModule &bsa, const MachineConfig &machine,
                   Interp::Limits limits)
{
    return runBlockStructured(bsa, machine,
                              captureTrace(*bsa.src, limits));
}

SimResult
runBlockStructured(const BsaModule &bsa, const MachineConfig &machine,
                   const ExecTrace &trace)
{
    const DecodedProgram decoded = DecodedProgram::forBsa(bsa);
    BsaFetchSource source(bsa, machine, trace, decoded);
    return simulateModel(source, machine);
}

TraceCacheResult
runTraceCache(const Module &module, const MachineConfig &machine,
              const TraceCacheConfig &tcConfig, Interp::Limits limits)
{
    return runTraceCache(module, machine, tcConfig,
                         captureTrace(module, limits));
}

TraceCacheResult
runTraceCache(const Module &module, const MachineConfig &machine,
              const TraceCacheConfig &tcConfig, const ExecTrace &trace)
{
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    TraceCacheFetchSource source(module, layout, machine, tcConfig,
                                 trace, decoded);
    TraceCacheResult result;
    result.sim = simulateModel(source, machine);
    result.traceHits = source.traceHits();
    result.traceMisses = source.traceMisses();
    return result;
}

// The batch entry points hand multi-config grids to the lockstep
// drivers, which dedup effectively identical configs, group lanes by
// predictor identity, and run the decoupled fetch-outcome pre-pass so
// timing lanes from every group step as fused full-width batches
// (sim/lockstep.hh).  A single config goes through the singleton
// replay instead, which runs the same fetch walk without the batch
// layout: on the paper-figures suite a one-lane lockstep run measured
// 30.2 Mop/s (BSA) and 45.2 Mop/s (conv) against 32.5 and 47.3 for
// the singleton (4-vCPU x86-64, best of 5).
//
// Out-of-order lanes are the second grouping axis: the OoO backend
// reorders consumption and keeps private rename/ROB/LSQ state, so it
// cannot share a lockstep walk.  A batch is partitioned by timing
// model — abstract lanes keep the lockstep path, each OoO lane walks
// its own replay — with the layout and DecodedProgram still built
// once and shared by every lane of the batch.

std::vector<SimResult>
runConventionalBatch(const Module &module,
                     const std::vector<MachineConfig> &machines,
                     const ExecTrace &trace)
{
    if (machines.empty())
        return {};
    if (machines.size() == 1)
        return {runConventional(module, machines[0], trace)};
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    if (!anyOoo(machines))
        return lockstepConventional(module, layout, decoded, machines,
                                    trace);

    std::vector<SimResult> out(machines.size());
    std::vector<MachineConfig> abstractLanes;
    std::vector<std::size_t> abstractIdx;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        if (machines[i].timingModel == TimingModel::Ooo) {
            ConvFetchSource source(module, layout, machines[i], trace,
                                   decoded);
            out[i] = simulateOoO(source, machines[i]);
        } else {
            abstractIdx.push_back(i);
            abstractLanes.push_back(machines[i]);
        }
    }
    if (abstractLanes.size() == 1) {
        ConvFetchSource source(module, layout, abstractLanes[0], trace,
                               decoded);
        out[abstractIdx[0]] =
            simulatePipeline(source, abstractLanes[0]);
    } else if (!abstractLanes.empty()) {
        const std::vector<SimResult> sims = lockstepConventional(
            module, layout, decoded, abstractLanes, trace);
        for (std::size_t i = 0; i < abstractIdx.size(); ++i)
            out[abstractIdx[i]] = sims[i];
    }
    return out;
}

std::vector<SimResult>
runBlockStructuredBatch(const BsaModule &bsa,
                        const std::vector<MachineConfig> &machines,
                        const ExecTrace &trace)
{
    if (machines.empty())
        return {};
    if (machines.size() == 1)
        return {runBlockStructured(bsa, machines[0], trace)};
    const DecodedProgram decoded = DecodedProgram::forBsa(bsa);
    if (!anyOoo(machines))
        return lockstepBlockStructured(bsa, decoded, machines, trace);

    std::vector<SimResult> out(machines.size());
    std::vector<MachineConfig> abstractLanes;
    std::vector<std::size_t> abstractIdx;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        if (machines[i].timingModel == TimingModel::Ooo) {
            BsaFetchSource source(bsa, machines[i], trace, decoded);
            out[i] = simulateOoO(source, machines[i]);
        } else {
            abstractIdx.push_back(i);
            abstractLanes.push_back(machines[i]);
        }
    }
    if (abstractLanes.size() == 1) {
        BsaFetchSource source(bsa, abstractLanes[0], trace, decoded);
        out[abstractIdx[0]] =
            simulatePipeline(source, abstractLanes[0]);
    } else if (!abstractLanes.empty()) {
        const std::vector<SimResult> sims =
            lockstepBlockStructured(bsa, decoded, abstractLanes, trace);
        for (std::size_t i = 0; i < abstractIdx.size(); ++i)
            out[abstractIdx[i]] = sims[i];
    }
    return out;
}

std::vector<TraceCacheResult>
runTraceCacheBatch(const Module &module,
                   const std::vector<MachineConfig> &machines,
                   const std::vector<TraceCacheConfig> &tcConfigs,
                   const ExecTrace &trace)
{
    BSISA_ASSERT(machines.size() == tcConfigs.size());
    if (machines.empty())
        return {};
    if (machines.size() == 1)
        return {runTraceCache(module, machines[0], tcConfigs[0],
                              trace)};
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    if (!anyOoo(machines))
        return lockstepTraceCache(module, layout, decoded, machines,
                                  tcConfigs, trace);

    std::vector<TraceCacheResult> out(machines.size());
    std::vector<MachineConfig> abstractLanes;
    std::vector<TraceCacheConfig> abstractTc;
    std::vector<std::size_t> abstractIdx;
    for (std::size_t i = 0; i < machines.size(); ++i) {
        if (machines[i].timingModel == TimingModel::Ooo) {
            TraceCacheFetchSource source(module, layout, machines[i],
                                         tcConfigs[i], trace, decoded);
            out[i].sim = simulateOoO(source, machines[i]);
            out[i].traceHits = source.traceHits();
            out[i].traceMisses = source.traceMisses();
        } else {
            abstractIdx.push_back(i);
            abstractLanes.push_back(machines[i]);
            abstractTc.push_back(tcConfigs[i]);
        }
    }
    if (abstractLanes.size() == 1) {
        TraceCacheFetchSource source(module, layout, abstractLanes[0],
                                     abstractTc[0], trace, decoded);
        out[abstractIdx[0]].sim =
            simulatePipeline(source, abstractLanes[0]);
        out[abstractIdx[0]].traceHits = source.traceHits();
        out[abstractIdx[0]].traceMisses = source.traceMisses();
    } else if (!abstractLanes.empty()) {
        const std::vector<TraceCacheResult> sims =
            lockstepTraceCache(module, layout, decoded, abstractLanes,
                               abstractTc, trace);
        for (std::size_t i = 0; i < abstractIdx.size(); ++i)
            out[abstractIdx[i]] = sims[i];
    }
    return out;
}

namespace
{

/** Block-structured lanes may only share a walk when they would
 *  enlarge to the same BsaModule. */
bool
sameEnlargement(const RunConfig &a, const RunConfig &b)
{
    return a.enlarge.maxOps == b.enlarge.maxOps &&
           a.enlarge.maxFaults == b.enlarge.maxFaults &&
           a.enlarge.mergeAcrossBackEdges ==
               b.enlarge.mergeAcrossBackEdges &&
           a.enlarge.enlargeLibraryFunctions ==
               b.enlarge.enlargeLibraryFunctions &&
           a.enlarge.enabled == b.enlarge.enabled &&
           a.enlarge.maxVariantsPerHead ==
               b.enlarge.maxVariantsPerHead &&
           a.enlarge.minMergeBias == b.enlarge.minMergeBias &&
           a.minMergeBias == b.minMergeBias;
}

} // namespace

std::size_t
PairSweep::addBenchmark(const Module &module, const ExecTrace &trace)
{
    BSISA_ASSERT(!planned);
    benches.push_back(Bench{&module, &trace, {}});
    return benches.size() - 1;
}

std::size_t
PairSweep::addPoint(std::size_t bench, const RunConfig &config)
{
    BSISA_ASSERT(!planned && bench < benches.size());
    const std::size_t idx = points.size();
    pointBench.push_back(bench);
    pointConfig.push_back(config);
    points.emplace_back();
    benches[bench].pointIds.push_back(idx);
    return idx;
}

void
PairSweep::plan()
{
    BSISA_ASSERT(!planned);
    planned = true;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const std::vector<std::size_t> &ids = benches[b].pointIds;
        if (ids.empty())
            continue;
        // All conventional points of a benchmark share one walk: the
        // conventional machine is independent of the enlargement
        // parameters, so any config mix is a valid batch.  Timing
        // model is a grouping axis too — abstract lanes go to one
        // lockstep batch, out-of-order lanes (which each walk a
        // private replay) to another, so a mixed grid neither
        // serializes the lockstep lanes behind OoO walks nor
        // re-partitions inside the batch entry points.
        std::vector<std::size_t> abstractIds;
        std::vector<std::size_t> oooIds;
        for (std::size_t idx : ids)
            (pointConfig[idx].machine.timingModel == TimingModel::Ooo
                 ? oooIds
                 : abstractIds)
                .push_back(idx);
        if (!abstractIds.empty())
            batches.push_back(Batch{false, b, abstractIds});
        if (!oooIds.empty())
            batches.push_back(Batch{false, b, oooIds});
        // Block-structured points group by enlargement identity (the
        // lanes must share one BsaModule) and by timing model.
        std::vector<std::size_t> groups;  // batch indices, this bench
        for (std::size_t idx : ids) {
            bool placed = false;
            for (std::size_t g : groups) {
                const RunConfig &head =
                    pointConfig[batches[g].pointIds.front()];
                if (sameEnlargement(head, pointConfig[idx]) &&
                    head.machine.timingModel ==
                        pointConfig[idx].machine.timingModel) {
                    batches[g].pointIds.push_back(idx);
                    placed = true;
                    break;
                }
            }
            if (!placed) {
                groups.push_back(batches.size());
                batches.push_back(Batch{true, b, {idx}});
            }
        }
    }

    // BSISA_BATCH_MAX caps the lockstep batch width: wider batches
    // amortize more trace-walk work but cost more memory per walk
    // (pools are laid out register-major across every lane of a
    // batch) and coarsen BSISA_JOBS parallelism.  0 / unset leaves
    // batches unbounded.  Splitting after grouping keeps the grouping
    // rules intact — every chunk is still a valid batch, and lanes
    // never interact, so results are identical at any cap.
    const std::uint64_t cap = envU64("BSISA_BATCH_MAX", 0);
    if (cap > 0) {
        std::vector<Batch> split;
        for (const Batch &bt : batches) {
            for (std::size_t at = 0; at < bt.pointIds.size();
                 at += cap) {
                const std::size_t end = std::min<std::size_t>(
                    at + cap, bt.pointIds.size());
                split.push_back(
                    Batch{bt.blockStructured, bt.bench,
                          {bt.pointIds.begin() +
                               static_cast<std::ptrdiff_t>(at),
                           bt.pointIds.begin() +
                               static_cast<std::ptrdiff_t>(end)}});
            }
        }
        batches.swap(split);
    }
}

void
PairSweep::runBatch(std::size_t batch)
{
    BSISA_ASSERT(planned && batch < batches.size());
    const Batch &bt = batches[batch];
    const Bench &bench = benches[bt.bench];

    if (!bt.blockStructured) {
        const ConvLayout layout(*bench.module);
        std::vector<MachineConfig> machines;
        machines.reserve(bt.pointIds.size());
        for (std::size_t idx : bt.pointIds) {
            points[idx].convCodeBytes = layout.totalBytes();
            points[idx].dynOps = bench.trace->dynOps;
            machines.push_back(pointConfig[idx].machine);
        }
        const std::vector<SimResult> sims =
            runConventionalBatch(*bench.module, machines,
                                 *bench.trace);
        for (std::size_t i = 0; i < bt.pointIds.size(); ++i)
            points[bt.pointIds[i]].conv = sims[i];
        return;
    }

    // One enlargement serves every lane of a block-structured batch.
    const RunConfig &head = pointConfig[bt.pointIds.front()];
    EnlargeConfig enlarge_cfg = head.enlarge;
    ProfileData profile;
    const ProfileData *profile_ptr = nullptr;
    if (head.minMergeBias > 0.0) {
        profile = profileFromTrace(*bench.trace);
        profile_ptr = &profile;
        enlarge_cfg.minMergeBias = head.minMergeBias;
    }
    EnlargeStats stats;
    BsaModule bsa = enlargeModule(*bench.module, enlarge_cfg,
                                  profile_ptr, &stats);
    const std::uint64_t code_bytes = layoutBsaModule(bsa);

    std::vector<MachineConfig> machines;
    machines.reserve(bt.pointIds.size());
    for (std::size_t idx : bt.pointIds) {
        points[idx].enlarge = stats;
        points[idx].bsaCodeBytes = code_bytes;
        machines.push_back(pointConfig[idx].machine);
    }
    const std::vector<SimResult> sims =
        runBlockStructuredBatch(bsa, machines, *bench.trace);
    for (std::size_t i = 0; i < bt.pointIds.size(); ++i)
        points[bt.pointIds[i]].bsa = sims[i];
}

PairResult
runPair(const Module &module, const RunConfig &config)
{
    // Capture-or-open: served from the BSISA_TRACE_DIR store when one
    // is configured, captured live (identical behavior) otherwise.
    const ExecTrace trace = captureOrLoadTrace(module, config.limits);
    return runPair(module, config, trace);
}

PairResult
runPair(const Module &module, const RunConfig &config,
        const ExecTrace &trace)
{
    PairResult result;

    const ConvLayout conv_layout(module);
    result.convCodeBytes = conv_layout.totalBytes();
    result.conv = runConventional(module, config.machine, trace);

    EnlargeConfig enlarge_cfg = config.enlarge;
    ProfileData profile;
    const ProfileData *profile_ptr = nullptr;
    if (config.minMergeBias > 0.0) {
        profile = profileFromTrace(trace);
        profile_ptr = &profile;
        enlarge_cfg.minMergeBias = config.minMergeBias;
    }
    BsaModule bsa =
        enlargeModule(module, enlarge_cfg, profile_ptr, &result.enlarge);
    result.bsaCodeBytes = layoutBsaModule(bsa);
    result.bsa = runBlockStructured(bsa, config.machine, trace);

    // Conventional dynamic op count (Table 2's metric).
    result.dynOps = trace.dynOps;
    return result;
}

} // namespace bsisa
