/**
 * @file
 * Plan builder: grid expansion, unit dedup, and chunk carving.
 * runConfigDigest is defined in spec.cc, next to the config rows it
 * walks.
 */

#include "exp/plan.hh"

#include <algorithm>
#include <unordered_map>

#include "exp/result_store.hh"
#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "support/digest.hh"
#include "support/parallel.hh"
#include "workloads/specmix.hh"

namespace bsisa
{

std::uint64_t
workUnitKey(std::uint64_t moduleDigest, std::uint64_t configDigest)
{
    return Fnv1a64()
        .u64(moduleDigest)
        .u64(configDigest)
        .u64(interpVersion)
        .u64(resultStoreFormatVersion)
        .value();
}

bool
expandGrid(const SweepSpec &spec, Interp::Limits limits,
           std::vector<RunConfig> &out, std::string &error)
{
    out.clear();
    RunConfig base;
    base.limits = limits;
    return forEachSpecConfig(
        spec, base,
        [&](const RunConfig &config) {
            out.push_back(config);
            return true;
        },
        error);
}

bool
buildPlan(const SweepSpec &spec, std::uint64_t chunkOverride,
          SweepPlan &out, std::string &error)
{
    out = SweepPlan{};
    out.spec = spec;
    out.specDigest = specDigest(spec);

    const auto suite = specint95Suite();
    for (const std::string &name : spec.benchmarks) {
        for (std::size_t i = 0; i < suite.size(); ++i) {
            if (name == suite[i].params.name) {
                PlanBench bench;
                bench.name = name;
                bench.suiteIndex = i;
                bench.limits.maxOps =
                    suite[i].scaledBudget(spec.effectiveScale()) /
                    spec.budgetDiv;
                out.benches.push_back(std::move(bench));
                break;
            }
        }
    }
    if (out.benches.size() != spec.benchmarks.size()) {
        error = "plan: unknown benchmark in spec";  // parse catches it
        return false;
    }

    // Generate + digest the modules (the expensive part of planning;
    // both are per-benchmark independent).
    out.modules.resize(out.benches.size());
    parallelFor(out.benches.size(), [&](std::size_t i) {
        out.modules[i] =
            generateWorkload(suite[out.benches[i].suiteIndex].params);
        out.benches[i].moduleDigest = moduleDigest(out.modules[i]);
    });

    // Expand the grid once per benchmark (limits differ per
    // benchmark, so config digests do too) and dedup into units.
    std::unordered_map<std::uint64_t, std::size_t> unitOf;
    for (std::size_t b = 0; b < out.benches.size(); ++b) {
        std::vector<RunConfig> grid;
        if (!expandGrid(spec, out.benches[b].limits, grid, error))
            return false;
        for (const RunConfig &config : grid) {
            const std::uint64_t configDigest = runConfigDigest(config);
            const std::uint64_t key =
                workUnitKey(out.benches[b].moduleDigest, configDigest);
            const std::size_t pointId = out.pointUnit.size();
            const auto it = unitOf.find(key);
            if (it != unitOf.end()) {
                out.units[it->second].pointIds.push_back(pointId);
                out.pointUnit.push_back(it->second);
                continue;
            }
            WorkUnit unit;
            unit.key = key;
            unit.moduleDigest = out.benches[b].moduleDigest;
            unit.configDigest = configDigest;
            unit.bench = b;
            unit.config = config;
            unit.pointIds.push_back(pointId);
            unitOf.emplace(key, out.units.size());
            out.pointUnit.push_back(out.units.size());
            out.units.push_back(std::move(unit));
        }
    }

    // Chunks: per benchmark, split at the chunk cap.  Chunk keys hash
    // the member unit keys, so chunk identity follows content.
    const std::uint64_t cap =
        chunkOverride ? chunkOverride : spec.chunkUnits;
    for (std::size_t b = 0; b < out.benches.size(); ++b) {
        std::vector<std::size_t> members;
        for (std::size_t u = 0; u < out.units.size(); ++u)
            if (out.units[u].bench == b)
                members.push_back(u);
        for (std::size_t at = 0; at < members.size();
             at += cap ? cap : members.size()) {
            const std::size_t end =
                cap ? std::min(at + cap, members.size())
                    : members.size();
            std::vector<std::size_t> chunk(members.begin() + at,
                                           members.begin() + end);
            Fnv1a64 h;
            for (std::size_t u : chunk)
                h.u64(out.units[u].key);
            out.chunkKeys.push_back(h.value());
            out.chunks.push_back(std::move(chunk));
        }
    }
    return true;
}

} // namespace bsisa
