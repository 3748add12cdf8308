/**
 * @file
 * Plan builder: benchmark budgets, grid expansion, unit dedup, and
 * chunk carving.
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
planBenches(const SweepSpec &spec, std::vector<PlanBench> &out,
            std::string &error)
{
    out.clear();
    const auto suite = specint95Suite();
    for (const std::string &name : spec.benchmarks) {
        const auto it = std::find_if(
            suite.begin(), suite.end(),
            [&](const SpecBenchmark &b) { return b.params.name == name; });
        if (it == suite.end()) {
            error = "benchmarks: unknown benchmark '" + name + "'";
            return false;
        }
        PlanBench bench;
        bench.name = name;
        bench.suiteIndex = std::size_t(it - suite.begin());
        bench.limits.maxOps =
            it->scaledBudget(spec.effectiveScale()) / spec.budgetDiv;
        if (bench.limits.maxOps == 0) {
            error = "scale " + std::to_string(spec.effectiveScale()) +
                    (spec.budgetDiv > 1 ? " with budget_div " +
                                              std::to_string(spec.budgetDiv)
                                        : "") +
                    " leaves " + name +
                    " a 0-op budget: its Table-2 count is " +
                    std::to_string(it->paperInstructions);
            return false;
        }
        out.push_back(std::move(bench));
    }
    return true;
}

bool
planUnits(SweepPlan &plan, std::string &error)
{
    std::unordered_map<std::uint64_t, std::size_t> unitOf;
    for (std::size_t b = 0; b < plan.benches.size(); ++b) {
        std::vector<RunConfig> grid;
        if (!expandGrid(plan.spec, plan.benches[b].limits, grid, error))
            return false;
        for (const RunConfig &config : grid) {
            const std::uint64_t configDigest = runConfigDigest(config);
            const std::uint64_t key =
                workUnitKey(plan.benches[b].moduleDigest, configDigest);
            const std::size_t pointId = plan.pointUnit.size();
            const auto it = unitOf.find(key);
            if (it != unitOf.end()) {
                plan.units[it->second].pointIds.push_back(pointId);
                plan.pointUnit.push_back(it->second);
                continue;
            }
            WorkUnit unit;
            unit.key = key;
            unit.moduleDigest = plan.benches[b].moduleDigest;
            unit.configDigest = configDigest;
            unit.bench = b;
            unit.config = config;
            unit.pointIds.push_back(pointId);
            unitOf.emplace(key, plan.units.size());
            plan.pointUnit.push_back(plan.units.size());
            plan.units.push_back(std::move(unit));
        }
    }
    return true;
}

bool
buildPlan(const SweepSpec &spec, std::uint64_t chunkOverride,
          SweepPlan &out, std::string &error)
{
    out = SweepPlan{};
    out.spec = spec;
    out.specDigest = specDigest(spec);
    if (!planBenches(spec, out.benches, error))
        return false;

    // Generate + digest the modules (the expensive part of planning;
    // both are per-benchmark independent).
    const auto suite = specint95Suite();
    out.modules.resize(out.benches.size());
    parallelFor(out.benches.size(), [&](std::size_t i) {
        out.modules[i] =
            generateWorkload(suite[out.benches[i].suiteIndex].params);
        out.benches[i].moduleDigest = moduleDigest(out.modules[i]);
    });
    if (!planUnits(out, error))
        return false;

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

void
addUnitPoints(PairSweep &sweep, const SweepPlan &plan,
              const std::vector<std::size_t> &units,
              const std::function<std::size_t(std::size_t)> &addBench)
{
    constexpr std::size_t none = ~std::size_t(0);
    std::vector<std::size_t> handle(plan.benches.size(), none);
    for (std::size_t u : units) {
        const std::size_t b = plan.units[u].bench;
        if (handle[b] == none)
            handle[b] = addBench(b);
        sweep.addPoint(handle[b], plan.units[u].config);
    }
}

} // namespace bsisa
