/**
 * @file
 * Content-addressed work-unit plans for the sweep service.
 *
 * A plan expands a SweepSpec's config grid into work units.  One unit
 * is one (module digest x RunConfig digest x interp/format version)
 * — exactly the identity the results store records — and grid points
 * whose configs collapse to the same unit are deduplicated up front,
 * the planning analog of lockstep's effectively-identical-config
 * dedup: the unit runs once and its result serves every point.
 *
 * The figure drivers plan their grids the same way (planBenches,
 * planUnits), so one unit key names a result everywhere.
 *
 * Units are also grouped into *chunks* (per benchmark, split by the
 * spec's chunk_units).  No library code reads them — a sweep runs its
 * whole plan as one PairSweep — and only the benchmark's traced sweep
 * rebuild (perfbench/src/traced.cc) walks them.
 *
 * Unit keys are stable across processes and sessions — everything
 * hashed is either canonical spec text, module content, or
 * fixed-width config fields — which is what makes the results store
 * a warm cache rather than a per-run scratch file.
 */

#ifndef BSISA_EXP_PLAN_HH
#define BSISA_EXP_PLAN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "ir/module.hh"

namespace bsisa
{

/** Stable digest of every RunConfig field (configFields() slot order,
 *  fixed width; doubles hashed by bit pattern; Interp::Limits included
 *  — the budget changes the committed stream, hence the results). */
std::uint64_t runConfigDigest(const RunConfig &config);

/** The content address of one work unit. */
std::uint64_t workUnitKey(std::uint64_t moduleDigest,
                          std::uint64_t configDigest);

/** One benchmark of a plan. */
struct PlanBench
{
    std::string name;
    std::size_t suiteIndex = 0;   //!< into specint95Suite()
    std::uint64_t moduleDigest = 0;
    Interp::Limits limits;        //!< scaled trace budget
};

/** One deduplicated work unit. */
struct WorkUnit
{
    std::uint64_t key = 0;
    std::uint64_t moduleDigest = 0;
    std::uint64_t configDigest = 0;
    std::size_t bench = 0;        //!< into SweepPlan::benches
    RunConfig config;
    /** Grid points (bench-major global ids) served by this unit. */
    std::vector<std::size_t> pointIds;
};

/** A fully expanded plan. */
struct SweepPlan
{
    SweepSpec spec;
    std::uint64_t specDigest = 0;
    std::vector<PlanBench> benches;
    std::vector<Module> modules;  //!< per bench, generation order
    std::vector<WorkUnit> units;
    /** Grid point (bench-major) -> unit index. */
    std::vector<std::size_t> pointUnit;
    /** Chunks: unit indices, benchmark-major order. */
    std::vector<std::vector<std::size_t>> chunks;
    /** Chunk identity, a hash of the member unit keys. */
    std::vector<std::uint64_t> chunkKeys;

    std::size_t gridPoints() const { return pointUnit.size(); }
};

/**
 * Expand the spec's config grid for one benchmark budget: the axis
 * cross-product applied over the base config (first axis outermost),
 * then the explicit points.  Returns false on a config-key error
 * (already excluded by parse validation; belt and braces).
 */
bool expandGrid(const SweepSpec &spec, Interp::Limits limits,
                std::vector<RunConfig> &out, std::string &error);

/**
 * The spec's benchmarks in spec order, each with its suite index and
 * its op budget: the Table-2 count divided by the scale, then by
 * budget_div.  Module digests are left 0.  False, with @p error
 * naming the benchmark and its count, on a 0-op budget (a run with
 * nothing to simulate); the spec validator and scaleDivisor() apply
 * the same check.
 */
bool planBenches(const SweepSpec &spec, std::vector<PlanBench> &out,
                 std::string &error);

/** Expand @p plan.spec's grid over @p plan.benches, whose module
 *  digests are set, and dedup it into plan.units and plan.pointUnit. */
bool planUnits(SweepPlan &plan, std::string &error);

/**
 * Build the full plan: planBenches, then generate the benchmark
 * modules (parallelFor) and digest them, then planUnits, and carve
 * chunks.  @p chunkOverride replaces the spec's chunk_units when
 * non-zero.
 */
bool buildPlan(const SweepSpec &spec, std::uint64_t chunkOverride,
               SweepPlan &out, std::string &error);

/** Add @p units (into plan.units) to @p sweep in order, so result k
 *  is units[k]'s; @p addBench registers each benchmark at its first
 *  unit and returns its sweep handle. */
void addUnitPoints(PairSweep &sweep, const SweepPlan &plan,
                   const std::vector<std::size_t> &units,
                   const std::function<std::size_t(std::size_t)> &addBench);

} // namespace bsisa

#endif // BSISA_EXP_PLAN_HH
