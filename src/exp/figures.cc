/**
 * @file
 * Figure-driver implementation.
 *
 * Every driver's pair grid is a SweepSpec (benchmark x machine
 * config), planned into work units by the sweep planner (planBenches,
 * planUnits) over the process's suite modules.  This file is the only
 * place that turns a suite benchmark into a module, a trace and a pair
 * result: suiteGrid serves each unit already in the process's result
 * memo and simulates the rest through one PairSweep, whose batches
 * replay one functional trace (sim/trace.hh) per benchmark once per
 * shared walk.  Results fill pre-sized slots (BSISA_JOBS workers) and
 * print serially in grid order, so the tables are byte-identical for
 * any worker count.
 *
 * Drivers in one process share work through per-process memos: the
 * compiled module and its digest (suiteModule), the suite traces by op
 * budget (captureSuiteTrace), and the pair results by unit key
 * (suiteGrid).  So Fig. 5 after Fig. 3 simulates nothing, and Fig. 6
 * and Fig. 7 share one grid whose 64 KB column is Fig. 3's base point.
 * A trace the store can serve again stays resident only while a sweep
 * or driver holds it; a trace only a functional run could reproduce
 * is kept for the process.  Modules derived from the suite's (re-split
 * or inlined) are memoized nowhere.  A memoized value is computed
 * exactly as an uncached call would compute it, so no driver's output
 * depends on what ran before it.
 */

#include "exp/figures.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "arch/instr_class.hh"
#include "arch/operation.hh"
#include "cache/trace_cache.hh"
#include "exp/spec.hh"
#include "sim/trace_store.hh"
#include "support/env.hh"
#include "support/parallel.hh"
#include "support/table.hh"

namespace bsisa
{

const std::vector<unsigned> icacheSizesKB = {16, 32, 64};

namespace
{

/** planBenches over a spec whose scale is BSISA_SCALE: fatal when a
 *  benchmark's budget is 0. */
std::vector<PlanBench>
driverBenches(const SweepSpec &spec)
{
    std::vector<PlanBench> benches;
    std::string error;
    if (!planBenches(spec, benches, error))
        fatal("environment variable BSISA_SCALE: ", error);
    return benches;
}

/** The whole suite at @p scale, then @p budgetDiv, as a spec. */
SweepSpec
suiteSpec(const char *name, std::uint64_t scale, std::uint64_t budgetDiv)
{
    SweepSpec spec;
    spec.name = name;
    spec.scale = scale;
    spec.budgetDiv = budgetDiv;
    for (const SpecBenchmark &bench : specint95Suite())
        spec.benchmarks.push_back(bench.params.name);
    return spec;
}

} // namespace

std::uint64_t
scaleDivisor()
{
    const std::uint64_t divisor = envU64("BSISA_SCALE", specScaleDivisor);
    if (divisor == 0)
        fatal("environment variable BSISA_SCALE: scale must be >= 1");
    driverBenches(suiteSpec("scale", divisor, 1));
    return divisor;
}

namespace
{

/** One suite trace's memo entry (see captureSuiteTrace). */
struct SuiteTrace
{
    /** Serializes acquisition: racing users share one load. */
    std::mutex mutex;
    /** The trace while any user holds it. */
    std::weak_ptr<const ExecTrace> live;
    /** Set when the store cannot serve the trace again. */
    std::shared_ptr<const ExecTrace> pinned;
};

/**
 * One benchmark's process-lifetime slot: its module and digest
 * (suiteModule, suiteModuleDigest) and its traces (captureSuiteTrace).
 * The module and the digest are filled once and never change after
 * that; std::map nodes never move, so a reference to an entry stays
 * valid while the map grows.
 */
struct SuiteSlot
{
    std::once_flag moduleOnce;
    std::once_flag digestOnce;
    Module module;
    std::uint64_t digest = 0;
    /** Guards the structure of traces. */
    std::mutex mutex;
    /** Keyed by (limits.maxOps, limits.maxBlocks). */
    std::map<std::pair<std::uint64_t, std::uint64_t>, SuiteTrace>
        traces;
};

SuiteSlot &
suiteSlot(std::size_t i)
{
    static std::vector<SuiteSlot> slots(specint95Suite().size());
    return slots.at(i);
}

/**
 * Benchmark @p i's functional trace under @p limits: the one a user
 * still holds, or else served from the trace store when warm and
 * captured live otherwise.  The handle keeps it resident; once every
 * handle is gone, the next call reopens the store entry.  Without a
 * store, or when its entry could not be written, the trace is kept
 * for the process, since only a functional run could reproduce it.
 */
std::shared_ptr<const ExecTrace>
captureSuiteTrace(std::size_t i, Interp::Limits limits)
{
    SuiteSlot &slot = suiteSlot(i);
    SuiteTrace *entry;
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        entry = &slot.traces[{limits.maxOps, limits.maxBlocks}];
    }
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->pinned)
        return entry->pinned;
    if (std::shared_ptr<const ExecTrace> held = entry->live.lock())
        return held;
    const TraceStore store = TraceStore::fromEnv();
    bool persisted = false;
    auto trace = std::make_shared<const ExecTrace>(
        store.enabled()
            ? store.load(suiteModule(i), suiteModuleDigest(i), limits,
                         &persisted)
            : captureTrace(suiteModule(i), limits));
    if (!persisted)
        entry->pinned = trace;
    entry->live = trace;
    return trace;
}

/**
 * A driver grid's spec: the suite at BSISA_SCALE, then @p budgetDiv,
 * on BSISA_TIMING_MODEL (traces are model-independent, so both models
 * replay the same store entries); the caller adds the grid.  The model
 * is parsed as the timing_model key, so a misspelt one is an error.
 */
SweepSpec
driverSpec(const char *name, std::uint64_t budgetDiv)
{
    SweepSpec spec = suiteSpec(name, scaleDivisor(), budgetDiv);
    const std::string model = envString("BSISA_TIMING_MODEL", "abstract");
    RunConfig probe;
    if (std::string error;
        !applyConfigKey(probe, "timing_model", model, error))
        fatal("environment variable BSISA_TIMING_MODEL: ", error);
    spec.base = {{"timing_model", model}};
    return spec;
}

/** A driver grid's plan and its results by unit. */
struct SuiteGrid
{
    SweepPlan plan;
    std::vector<PairResult> results;

    /** Grid point @p k of benchmark @p b: its unit and its result. */
    const WorkUnit &
    unit(std::size_t b, std::size_t k) const
    {
        return plan.units[plan.pointUnit[
            b * plan.spec.pointsPerBenchmark() + k]];
    }
    const PairResult &
    at(std::size_t b, std::size_t k) const
    {
        return results[&unit(b, k) - plan.units.data()];  // by unit
    }
};

/**
 * Plan @p spec and return its results.  On the suite's modules, a unit
 * in the process's result memo is served from it; the rest run
 * through one PairSweep and join the memo.  The unit key covers the
 * module (each hashed once per process), BSISA_SCALE through the
 * budget, and every config field.  A benchmark with a missing unit
 * acquires its trace when its first batch starts.
 *
 * With @p derive, benchmark b runs on derive(its suite index) instead,
 * a module the suite memo does not hold (a re-split copy, an inlined
 * build): it commits a different stream, so it has a trace of its own,
 * and neither that trace nor its results are memoized.
 */
SuiteGrid
suiteGrid(const SweepSpec &spec,
          const std::function<Module(std::size_t)> &derive = nullptr)
{
    SuiteGrid grid;
    SweepPlan &plan = grid.plan;
    plan.spec = spec;
    plan.benches = driverBenches(spec);
    plan.modules.resize(derive ? plan.benches.size() : 0);
    parallelFor(plan.benches.size(), [&](std::size_t b) {
        PlanBench &bench = plan.benches[b];
        if (!derive) {
            bench.moduleDigest = suiteModuleDigest(bench.suiteIndex);
            return;
        }
        plan.modules[b] = derive(bench.suiteIndex);
        bench.moduleDigest = moduleDigest(plan.modules[b]);
    });
    std::string error;
    if (!planUnits(plan, error))
        fatal("grid '", spec.name, "': ", error);

    // The process's pair results by unit key.
    static std::mutex memoMutex;
    static std::unordered_map<std::uint64_t, PairResult> memo;
    grid.results.resize(plan.units.size());
    std::vector<std::size_t> missing;
    {
        std::lock_guard<std::mutex> lock(memoMutex);
        for (std::size_t u = 0; u < plan.units.size(); ++u) {
            const auto it = memo.find(plan.units[u].key);
            if (!derive && it != memo.end())
                grid.results[u] = it->second;
            else
                missing.push_back(u);
        }
    }

    PairSweep sweep;
    addUnitPoints(sweep, plan, missing, [&](std::size_t b) {
        const PlanBench bench = plan.benches[b];
        const Module &module =
            derive ? plan.modules[b] : suiteModule(bench.suiteIndex);
        return sweep.addBenchmark(
            module, {bench.limits.maxOps,
                     [&module, bench, derived = bool(derive)] {
                         return derived
                                    ? std::make_shared<const ExecTrace>(
                                          captureOrLoadTrace(
                                              module, bench.moduleDigest,
                                              bench.limits))
                                    : captureSuiteTrace(bench.suiteIndex,
                                                        bench.limits);
                     }});
    });
    const std::vector<PairResult> &fresh = sweep.run();

    std::lock_guard<std::mutex> lock(memoMutex);
    for (std::size_t k = 0; k < missing.size(); ++k) {
        grid.results[missing[k]] = fresh[k];
        // A racing call may have stored the same unit first; both
        // results are bit-identical, and the first one stays.
        if (!derive)
            memo.emplace(plan.units[missing[k]].key, fresh[k]);
    }
    return grid;
}

/** Every benchmark's trace at @p spec's budgets, for a driver that
 *  passes over the events after its grid: held from before the grid
 *  until that pass ends, each trace is opened once. */
std::vector<std::shared_ptr<const ExecTrace>>
holdSuiteTraces(const SweepSpec &spec)
{
    const std::vector<PlanBench> benches = driverBenches(spec);
    std::vector<std::shared_ptr<const ExecTrace>> traces(benches.size());
    parallelFor(benches.size(), [&](std::size_t b) {
        traces[b] =
            captureSuiteTrace(benches[b].suiteIndex, benches[b].limits);
    });
    return traces;
}

} // namespace

const Module &
suiteModule(std::size_t i)
{
    SuiteSlot &slot = suiteSlot(i);
    std::call_once(slot.moduleOnce, [&] {
        slot.module = generateWorkload(specint95Suite()[i].params);
    });
    return slot.module;
}

std::uint64_t
suiteModuleDigest(std::size_t i)
{
    SuiteSlot &slot = suiteSlot(i);
    std::call_once(slot.digestOnce,
                   [&] { slot.digest = moduleDigest(suiteModule(i)); });
    return slot.digest;
}

BenchOutcome
benchOutcomeOf(const std::string &name, const PairResult &r)
{
    BenchOutcome o;
    o.name = name;
    o.convCycles = r.conv.cycles;
    o.bsaCycles = r.bsa.cycles;
    o.convBlockSize = r.conv.avgBlockSize();
    o.bsaBlockSize = r.bsa.avgBlockSize();
    o.convIcacheMissRate = r.conv.icache.missRate();
    o.bsaIcacheMissRate = r.bsa.icache.missRate();
    o.dynOps = r.dynOps;
    return o;
}

std::vector<BenchOutcome>
renderFigure(std::ostream &os, const SweepPlan &plan,
             const std::vector<PairResult> &results)
{
    std::vector<BenchOutcome> outcomes;
    for (std::size_t b = 0; b < plan.benches.size(); ++b)
        outcomes.push_back(benchOutcomeOf(plan.benches[b].name,
                                          results[plan.pointUnit[b]]));
    if (plan.spec.figure == "cycles")
        renderCycleComparison(os, outcomes,
                              plan.units[plan.pointUnit[0]]
                                  .config.machine.perfectPrediction);
    else
        renderBlockSizeComparison(os, outcomes);
    return outcomes;
}

void
renderCycleComparison(std::ostream &os,
                      const std::vector<BenchOutcome> &outcomes,
                      bool perfectPrediction)
{
    os << (perfectPrediction
               ? "Figure 4: Performance comparison assuming perfect "
                 "branch prediction.\n"
               : "Figure 3: Performance comparison of block-structured "
                 "ISA executables\nand conventional ISA executables "
                 "(64KB 4-way L1 icache).\n")
       << "\n";

    Table t({"Benchmark", "Conventional (cycles)",
             "Block-Structured (cycles)", "Reduction"});
    BarChart chart("Total cycles (lower is better)",
                   {"Conventional ISA", "Block-Structured ISA"});
    double geo = 0.0;
    for (const BenchOutcome &o : outcomes) {
        t.addRow({o.name, Table::fmtSep(o.convCycles),
                  Table::fmtSep(o.bsaCycles),
                  Table::fmt(100.0 * o.reduction(), 1) + "%"});
        chart.addGroup(o.name, {double(o.convCycles) / 1e3,
                                double(o.bsaCycles) / 1e3});
        geo += o.reduction();
    }
    t.addRow({"average", "", "",
              Table::fmt(100.0 * geo / outcomes.size(), 1) + "%"});
    t.print(os);
    os << "\n";
    chart.print(os);
}

void
renderBlockSizeComparison(std::ostream &os,
                          const std::vector<BenchOutcome> &outcomes)
{
    os << "Figure 5: Average block sizes for block-structured and "
          "conventional ISA executables\n(retired blocks only).\n\n";

    Table t({"Benchmark", "Conventional", "Block-Structured"});
    BarChart chart("Average retired block size (operations)",
                   {"Conventional ISA", "Block-Structured ISA"});
    double conv_sum = 0.0, bsa_sum = 0.0;
    for (const BenchOutcome &o : outcomes) {
        t.addRow({o.name, Table::fmt(o.convBlockSize, 2),
                  Table::fmt(o.bsaBlockSize, 2)});
        chart.addGroup(o.name, {o.convBlockSize, o.bsaBlockSize});
        conv_sum += o.convBlockSize;
        bsa_sum += o.bsaBlockSize;
    }
    t.addRow({"average", Table::fmt(conv_sum / outcomes.size(), 2),
              Table::fmt(bsa_sum / outcomes.size(), 2)});
    t.print(os);
    os << "\n";
    chart.print(os);
}

void
printTable1(std::ostream &os)
{
    os << "Table 1: Instruction classes and latencies\n\n";
    Table t({"Instruction Class", "Exec. Lat.", "Description"});
    t.addRow({"Integer", "1", "INT add, sub and logic OPs"});
    t.addRow({"FP Add", "3", "FP add, sub, and convert"});
    t.addRow({"FP/INT Mul", "3", "FP mul and INT mul"});
    t.addRow({"FP/INT Div", "8", "FP div and INT div"});
    t.addRow({"Load", "2", "Memory loads"});
    t.addRow({"Store", "1", "Memory stores"});
    t.addRow({"Bit Field", "1", "Shift, and bit testing"});
    t.addRow({"Branch", "1", "Control instructions"});
    t.print(os);
    os << "\nModel check (execLatency):\n";
    Table v({"class", "latency"});
    const InstrClass classes[] = {
        InstrClass::IntAlu,   InstrClass::FpAdd, InstrClass::FpIntMul,
        InstrClass::FpIntDiv, InstrClass::Load,  InstrClass::Store,
        InstrClass::BitField, InstrClass::Branch};
    for (InstrClass cls : classes) {
        v.addRow({instrClassName(cls),
                  Table::fmt(std::uint64_t(execLatency(cls)))});
    }
    v.print(os);
}

std::vector<BenchOutcome>
printTable2(std::ostream &os)
{
    const std::uint64_t divisor = scaleDivisor();
    os << "Table 2: The SPECint95 benchmarks and their input data "
          "sets.\n(synthetic stand-ins; dynamic op budgets are the "
          "paper's counts / "
       << divisor << ")\n\n";
    Table t({"Benchmark", "Input", "# of Instructions (paper)",
             "# simulated (measured)"});
    const auto suite = specint95Suite();
    const TraceStore store = TraceStore::fromEnv();
    std::vector<BenchOutcome> outcomes(suite.size());
    parallelFor(suite.size(), [&](std::size_t i) {
        Interp::Limits limits;
        limits.maxOps = suite[i].scaledBudget(divisor);
        outcomes[i].name = suite[i].params.name;
        // The measured count is a property of the committed stream,
        // and a warm store entry's checked header records it; any
        // other entry is loaded (and repaired) as a trace.
        TraceFileHeader header;
        const TraceKey key{store.enabled() ? suiteModuleDigest(i) : 0,
                           limits.maxOps, limits.maxBlocks};
        if (store.enabled() &&
            readTraceHeader(store.entryPath(key), key, header) ==
                TraceOpenStatus::Ok)
            outcomes[i].dynOps = header.dynOps;
        else
            outcomes[i].dynOps = captureSuiteTrace(i, limits)->dynOps;
    });
    for (std::size_t i = 0; i < suite.size(); ++i) {
        t.addRow({suite[i].params.name, suite[i].input,
                  Table::fmtSep(suite[i].paperInstructions),
                  Table::fmtSep(outcomes[i].dynOps)});
    }
    t.print(os);
    return outcomes;
}

std::vector<BenchOutcome>
runCycleComparison(std::ostream &os, bool perfectPrediction)
{
    SweepSpec spec = driverSpec(perfectPrediction ? "fig4" : "fig3", 1);
    spec.figure = "cycles";
    if (perfectPrediction)
        spec.base.insert(spec.base.begin(), {"perfect_prediction", "true"});
    const SuiteGrid grid = suiteGrid(spec);
    return renderFigure(os, grid.plan, grid.results);
}

std::vector<BenchOutcome>
runBlockSizeComparison(std::ostream &os)
{
    SweepSpec spec = driverSpec("fig5", 1);
    spec.figure = "blocksize";
    const SuiteGrid grid = suiteGrid(spec);
    return renderFigure(os, grid.plan, grid.results);
}

std::vector<IcacheSweepRow>
runIcacheSweep(std::ostream &os, bool blockStructured)
{
    os << (blockStructured
               ? "Figure 7: Relative increase in execution times for "
                 "the block-structured ISA\nexecutables over the "
                 "execution time with a perfect icache.\n"
               : "Figure 6: Relative increase in execution times for "
                 "the conventional ISA\nexecutables over the execution "
                 "time with a perfect icache.\n")
       << "\n";

    // Point 0 is the perfect-icache baseline and point 1 + si the
    // icacheSizesKB[si] icache.  Both machines run every point, so
    // Fig. 6 and Fig. 7 share one grid, and the 64 KB column is
    // Fig. 3's base point.
    SweepSpec spec = driverSpec("fig6-7", 1);
    spec.points.push_back({{"icache_perfect", "true"}});
    for (unsigned kb : icacheSizesKB)
        spec.points.push_back({{"icache_kb", std::to_string(kb)}});
    const SuiteGrid grid = suiteGrid(spec);
    const auto cycles = [&](std::size_t ci, std::size_t bi) {
        const PairResult &r = grid.at(bi, ci);
        return blockStructured ? r.bsa.cycles : r.conv.cycles;
    };

    std::vector<IcacheSweepRow> rows;
    std::vector<std::string> headers{"Benchmark"};
    for (unsigned kb : icacheSizesKB)
        headers.push_back(std::to_string(kb) + "KB");
    Table t(headers);
    BarChart chart("Relative execution-time increase vs perfect icache",
                   {"16KB", "32KB", "64KB"});

    for (std::size_t bi = 0; bi < grid.plan.benches.size(); ++bi) {
        IcacheSweepRow row;
        row.name = grid.plan.benches[bi].name;
        std::vector<std::string> cells{row.name};
        for (std::size_t si = 0; si < icacheSizesKB.size(); ++si) {
            const double increase =
                double(cycles(1 + si, bi)) / double(cycles(0, bi)) -
                1.0;
            row.relativeIncrease.push_back(increase);
            cells.push_back(Table::fmt(increase, 3));
        }
        t.addRow(cells);
        chart.addGroup(row.name, row.relativeIncrease);
        rows.push_back(row);
    }
    t.print(os);
    os << "\n";
    chart.print(os);
    return rows;
}

void
runLimitsAblation(std::ostream &os)
{
    os << "Ablation: enlargement termination conditions 1-2 "
          "(issue-width and fault limits).\nAverage reduction across "
          "the suite for each (maxOps, maxFaults).\n\n";
    Table t({"maxOps", "maxFaults", "avg reduction", "avg BSA block",
             "avg code expansion"});
    const std::pair<unsigned, unsigned> configs[] = {
        {16, 0}, {16, 1}, {16, 2}, {16, 3},
        {8, 2},  {24, 2}, {32, 2}};
    // Per benchmark the (identical) conventional runs of the unsplit
    // configs collapse into one lockstep walk, while each distinct
    // enlargement keeps its own BSA run.  The one width below the
    // suite's blocks runs on copies of the modules re-split to it.
    constexpr unsigned narrowOps = 8;
    SweepSpec wide = driverSpec("limits", 4);
    SweepSpec narrow = wide;
    for (const auto &[ops, faults] : configs)
        (ops == narrowOps ? narrow : wide)
            .points.push_back(
                {{"enlarge_max_faults", std::to_string(faults)},
                 {"enlarge_max_ops", std::to_string(ops)}});
    const SuiteGrid wideGrid = suiteGrid(wide);
    const SuiteGrid narrowGrid = suiteGrid(narrow, [](std::size_t i) {
        Module m = suiteModule(i);
        splitOversizedBlocks(m, narrowOps);
        return m;
    });

    const double n = double(wideGrid.plan.benches.size());
    std::size_t k = 0;  // the next wide grid point
    for (const auto &[ops, faults] : configs) {
        const SuiteGrid &grid = ops == narrowOps ? narrowGrid : wideGrid;
        const std::size_t point = ops == narrowOps ? 0 : k++;
        double total_red = 0.0, total_blk = 0.0, total_exp = 0.0;
        for (std::size_t bi = 0; bi < grid.plan.benches.size(); ++bi) {
            const PairResult &r = grid.at(bi, point);
            total_red += r.reduction();
            total_blk += r.bsa.avgBlockSize();
            total_exp += r.enlarge.expansion();
        }
        t.addRow({Table::fmt(std::uint64_t(ops)),
                  Table::fmt(std::uint64_t(faults)),
                  Table::fmt(100.0 * total_red / n, 1) + "%",
                  Table::fmt(total_blk / n, 2),
                  Table::fmt(total_exp / n, 2)});
    }
    t.print(os);
    os << "\nNOTE: maxOps above 16 models issue widths beyond the "
          "paper's processor;\nblocks are still split at the "
          "conventional compiler's 16-op limit.\n";
}

void
runProfileAblation(std::ostream &os)
{
    os << "Ablation: profile-guided enlargement (the paper's section-6 "
          "'profiling'\nextension): skip merging traps whose dynamic "
          "bias is below the threshold.\n\n";
    Table t({"min merge bias", "avg reduction", "avg code expansion",
             "avg BSA icache miss%"});
    // Each threshold enlarges differently (BSA runs stay singleton),
    // but every benchmark's five identical conventional runs share
    // one lockstep walk.
    SweepSpec spec = driverSpec("profile", 4);
    spec.axes = {{"min_merge_bias", {"0", "0.6", "0.75", "0.9", "0.99"}}};
    const SuiteGrid grid = suiteGrid(spec);

    const double n = double(grid.plan.benches.size());
    for (std::size_t ti = 0; ti < spec.pointsPerBenchmark(); ++ti) {
        double total_red = 0.0, total_exp = 0.0, total_miss = 0.0;
        for (std::size_t bi = 0; bi < grid.plan.benches.size(); ++bi) {
            const PairResult &r = grid.at(bi, ti);
            total_red += r.reduction();
            total_exp += r.enlarge.expansion();
            total_miss += r.bsa.icache.missRate();
        }
        const double threshold = grid.unit(0, ti).config.minMergeBias;
        t.addRow({threshold == 0.0 ? "off" : Table::fmt(threshold, 2),
                  Table::fmt(100.0 * total_red / n, 1) + "%",
                  Table::fmt(total_exp / n, 2),
                  Table::fmt(100.0 * total_miss / n, 2) + "%"});
    }
    t.print(os);
}

namespace
{

/** @p cells, then @p grid's suite-average branch accuracies and
 *  reduction at point @p k: a predictor-ablation row. */
std::vector<std::string>
accuracyRow(std::vector<std::string> cells, const SuiteGrid &grid,
            std::size_t k)
{
    double conv_acc = 0.0, bsa_acc = 0.0, total_red = 0.0;
    for (std::size_t bi = 0; bi < grid.plan.benches.size(); ++bi) {
        const PairResult &r = grid.at(bi, k);
        conv_acc += r.conv.branchAccuracy();
        bsa_acc += r.bsa.branchAccuracy();
        total_red += r.reduction();
    }
    const double n = double(grid.plan.benches.size());
    for (double sum : {conv_acc, bsa_acc, total_red})
        cells.push_back(Table::fmt(100.0 * sum / n, 1) + "%");
    return cells;
}

} // namespace

void
runPredictorAblation(std::ostream &os)
{
    os << "Ablation: predictor geometry (history length and PHT "
          "size), both machines,\naverage across the suite.\n\n";
    Table t({"history bits", "PHT bits", "conv accuracy",
             "bsa accuracy", "avg reduction"});
    // Only the predictor geometry varies, so per benchmark the whole
    // grid collapses to two lockstep walks: one advancing every
    // conventional lane, one advancing every BSA lane (the module
    // enlarges once per benchmark).
    SweepSpec geometries = driverSpec("predictor", 4);
    for (const auto &[history, pht] :
         {std::pair{"4", "10"}, {"8", "12"}, {"12", "14"}, {"16", "16"}})
        geometries.points.push_back(
            {{"history_bits", history}, {"pht_bits", pht}});
    const SuiteGrid geomGrid = suiteGrid(geometries);
    for (std::size_t ci = 0; ci < geometries.pointsPerBenchmark(); ++ci) {
        const PredictorConfig &p =
            geomGrid.unit(0, ci).config.machine.predictor;
        t.addRow(accuracyRow({Table::fmt(std::uint64_t(p.historyBits)),
                              Table::fmt(std::uint64_t(p.phtBits))},
                             geomGrid, ci));
    }
    t.print(os);

    os << "\nTwo-level scheme variants (Yeh-Patt taxonomy), "
          "paper-size tables:\n\n";
    Table ts({"scheme", "conv accuracy", "bsa accuracy",
              "avg reduction"});
    SweepSpec schemes = driverSpec("predictor-schemes", 4);
    schemes.axes = {{"predictor_scheme", {"GAg", "GAs", "PAg", "PAs"}}};
    const SuiteGrid schemeGrid = suiteGrid(schemes);
    for (std::size_t ci = 0; ci < schemes.pointsPerBenchmark(); ++ci)
        ts.addRow(accuracyRow(
            {predictorSchemeName(
                schemeGrid.unit(0, ci).config.machine.predictor.scheme)},
            schemeGrid, ci));
    ts.print(os);
}

void
runConditionsAblation(std::ostream &os)
{
    os << "Ablation: enlargement termination conditions 4 "
          "(loop iterations) and 5 (library code).\n\n";
    // The setups change only the enlargement, so every benchmark's
    // four conventional points share one lockstep walk; the paper
    // setup is the ablations' shared base point.  The second axis
    // varies fastest, so the names follow the grid's order.
    SweepSpec spec = driverSpec("conditions", 4);
    spec.axes = {{"enlarge_library_functions", {"false", "true"}},
                 {"merge_across_back_edges", {"false", "true"}}};
    const char *names[] = {"paper (both conditions on)",
                           "merge across back edges",
                           "enlarge library code", "both lifted"};
    const SuiteGrid grid = suiteGrid(spec);

    Table t({"configuration", "avg reduction", "avg BSA block",
             "avg code expansion"});
    const double n = double(grid.plan.benches.size());
    for (std::size_t ci = 0; ci < std::size(names); ++ci) {
        double red = 0.0, blk = 0.0, exp = 0.0;
        for (std::size_t bi = 0; bi < grid.plan.benches.size(); ++bi) {
            const PairResult &r = grid.at(bi, ci);
            red += r.reduction();
            blk += r.bsa.avgBlockSize();
            exp += r.enlarge.expansion();
        }
        t.addRow({names[ci], Table::fmt(100.0 * red / n, 1) + "%",
                  Table::fmt(blk / n, 2), Table::fmt(exp / n, 2)});
    }
    t.print(os);
    os << "\n(Condition 3 — calls/returns/indirect jumps — is "
          "structural: the merge\nmachinery has no way to combine "
          "across a window switch, matching the paper.)\n";
}

void
runWorkloadReport(std::ostream &os)
{
    os << "Synthetic workload characterization (dynamic properties at "
          "1/4 scale budget).\n\n";
    const SweepSpec spec = driverSpec("workload", 4);
    const std::vector<std::shared_ptr<const ExecTrace>> traces =
        holdSuiteTraces(spec);
    // The conventional half of the ablations' shared base point
    // supplies the branch accuracy and dcache miss rate.
    const SuiteGrid grid = suiteGrid(spec);

    Table t({"Benchmark", "code KB", "funcs", "dyn block", "call+ret%",
             "lib%", "branch acc", "dcache miss%"});
    for (std::size_t bi = 0; bi < grid.plan.benches.size(); ++bi) {
        const Module &m = suiteModule(bi);
        const ExecTrace &trace = *traces[bi];
        std::uint64_t blocks = 0, ops = 0, callret = 0, lib_blocks = 0;
        for (std::size_t i = 0; i < trace.eventCount; ++i) {
            const TraceEvent &ev = trace.events[i];
            const Function &fn = m.functions[ev.func];
            ++blocks;
            ops += fn.blocks[ev.block].ops.size();
            callret += ev.exit == ExitKind::Call ||
                       ev.exit == ExitKind::Ret;
            lib_blocks += fn.isLibrary;
        }
        const PairResult &r = grid.at(bi, 0);
        t.addRow({grid.plan.benches[bi].name,
                  Table::fmt(m.numOps() * opBytes / 1024.0, 1),
                  Table::fmt(std::uint64_t(m.functions.size())),
                  Table::fmt(double(ops) / double(blocks), 2),
                  Table::fmt(100.0 * double(callret) / double(blocks),
                             1),
                  Table::fmt(100.0 * double(lib_blocks) /
                                 double(blocks),
                             1),
                  Table::fmt(100.0 * r.conv.branchAccuracy(), 1) + "%",
                  Table::fmt(100.0 * r.conv.dcache.missRate(), 2)});
    }
    t.print(os);
    os << "\nIntended character (see src/workloads/specmix.cc):\n"
          "  - gcc/go/vortex: large code, small blocks, weaker "
          "prediction (gcc/go)\n"
          "  - compress/li: tiny code; li call-dominated, compress "
          "loop/data-dominated\n"
          "  - ijpeg/m88ksim: predictable, larger blocks (ijpeg) / "
          "dispatch loops (m88ksim)\n";
}

void
runTraceCacheComparison(std::ostream &os)
{
    os << "Extension: block-structured ISA vs conventional + trace "
          "cache\n(64KB icache; trace cache: up to 3 blocks / 16 ops "
          "per trace).\n\n";
    const SweepSpec spec = driverSpec("tracecache", 2);
    const std::vector<std::shared_ptr<const ExecTrace>> traces =
        holdSuiteTraces(spec);
    const SuiteGrid grid = suiteGrid(spec);
    const std::size_t n = grid.plan.benches.size();
    // Both trace-cache sizes replay the pair's trace on the pair's
    // machine, so the pair's conventional result is their baseline.
    const unsigned tcEntries[] = {64, 256};
    const std::size_t ntc = std::size(tcEntries);
    std::vector<TraceCacheResult> tc(n * ntc);
    parallelFor(n, [&](std::size_t bi) {
        for (std::size_t t = 0; t < ntc; ++t) {
            TraceCacheConfig config;
            config.entries = tcEntries[t];
            tc[bi * ntc + t] =
                runTraceCache(suiteModule(bi),
                              grid.unit(bi, 0).config.machine, config,
                              *traces[bi]);
        }
    });

    Table t({"Benchmark", "conv", "conv+TC(64)", "conv+TC(256)", "BSA",
             "TC(256) hit%", "best"});
    for (std::size_t bi = 0; bi < n; ++bi) {
        const PairResult &pair = grid.at(bi, 0);
        const TraceCacheResult &small = tc[bi * ntc];
        const TraceCacheResult &big = tc[bi * ntc + 1];
        const std::uint64_t best = std::min(
            {small.sim.cycles, big.sim.cycles, pair.bsa.cycles});
        t.addRow({grid.plan.benches[bi].name,
                  Table::fmtSep(pair.conv.cycles),
                  Table::fmtSep(small.sim.cycles),
                  Table::fmtSep(big.sim.cycles),
                  Table::fmtSep(pair.bsa.cycles),
                  Table::fmt(100.0 * big.hitRate(), 1),
                  best == pair.bsa.cycles ? "BSA" : "trace cache"});
    }
    t.print(os);
    os << "\nBoth techniques combine blocks; the trace cache avoids "
          "code expansion but only\nhelps on paths it has already seen "
          "and that fit its capacity, while block\nenlargement bakes "
          "every combination into the executable (paper, section "
          "3).\n";
}

void
runInlineExtension(std::ostream &os)
{
    os << "Extension: small-leaf inlining before block enlargement "
          "(section 6).\n\n";
    const SweepSpec spec = driverSpec("inline", 2);
    const SuiteGrid plain = suiteGrid(spec);
    const SuiteGrid inlined = suiteGrid(spec, [](std::size_t i) {
        WorkloadParams params = specint95Suite()[i].params;
        params.inlineSmallCalls = true;
        return generateWorkload(params);
    });

    Table t({"Benchmark", "blk (plain)", "blk (inline)", "red% (plain)",
             "red% (inline)", "code x (inline)"});
    const std::size_t n = plain.plan.benches.size();
    double base_sum = 0.0, inline_sum = 0.0;
    for (std::size_t bi = 0; bi < n; ++bi) {
        const PairResult &rp = plain.at(bi, 0);
        const PairResult &ri = inlined.at(bi, 0);
        base_sum += rp.reduction();
        inline_sum += ri.reduction();
        t.addRow({plain.plan.benches[bi].name,
                  Table::fmt(rp.bsa.avgBlockSize(), 2),
                  Table::fmt(ri.bsa.avgBlockSize(), 2),
                  Table::fmt(100.0 * rp.reduction(), 1),
                  Table::fmt(100.0 * ri.reduction(), 1),
                  Table::fmt(double(ri.bsaCodeBytes) /
                                 double(std::max<std::uint64_t>(
                                     1, ri.convCodeBytes)),
                             2)});
    }
    t.addRow({"average", "", "", Table::fmt(100.0 * base_sum / n, 1),
              Table::fmt(100.0 * inline_sum / n, 1), ""});
    t.print(os);
    os << "\nInlining removes call/return boundaries (enlargement "
          "condition 3), letting\natomic blocks grow through former "
          "call sites at the cost of still more code\nduplication "
          "— the paper's predicted trade-off.\n";
}

} // namespace bsisa
