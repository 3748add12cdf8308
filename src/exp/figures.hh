/**
 * @file
 * Per-figure experiment drivers.
 *
 * Each function regenerates one of the paper's tables or figures (or
 * one of DESIGN.md's ablations and extensions) over the synthetic
 * SPECint95 suite and renders it as text; the bench/ binaries, except
 * the throughput benchmark bench_sim_throughput, are one-line
 * wrappers.  The figure drivers also return their numbers so
 * tests can assert the shapes.
 *
 * Every driver's pair grid is a SweepSpec, planned into work units by
 * the sweep service's planner (exp/plan.hh): BSISA_SCALE is the spec's
 * scale, dividing Table-2's instruction counts (default
 * specScaleDivisor), and BSISA_TIMING_MODEL its base timing_model.
 *
 * Drivers called in one process share work: the suite's modules,
 * traces and pair results (by unit key) are computed once per process
 * and kept for later calls (DESIGN.md decision 19).  A driver's output
 * never depends on which drivers ran before it.
 */

#ifndef BSISA_EXP_FIGURES_HH
#define BSISA_EXP_FIGURES_HH

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/plan.hh"
#include "exp/runner.hh"
#include "workloads/specmix.hh"

namespace bsisa
{

/** One benchmark's outcome in a two-machine comparison. */
struct BenchOutcome
{
    std::string name;
    std::uint64_t convCycles = 0;
    std::uint64_t bsaCycles = 0;
    double convBlockSize = 0.0;
    double bsaBlockSize = 0.0;
    double convIcacheMissRate = 0.0;
    double bsaIcacheMissRate = 0.0;
    std::uint64_t dynOps = 0;

    double
    reduction() const
    {
        return convCycles
                   ? 1.0 - double(bsaCycles) / double(convCycles)
                   : 0.0;
    }
};

/** Scale divisor from BSISA_SCALE (default specScaleDivisor); fatal
 *  when it is 0 or leaves a benchmark a 0-op budget. */
std::uint64_t scaleDivisor();

/**
 * The compiled module of specint95Suite()[@p i], shared by every
 * figure driver and tool in the process: generated on first use
 * (once per benchmark, even when parallelFor workers race for it)
 * and immutable for the rest of the process.  Generation depends on
 * no env var, so one slot per benchmark serves any BSISA_SCALE.
 */
const Module &suiteModule(std::size_t i);

/** moduleDigest(suiteModule(@p i)), hashed on first use: the
 *  trace store's and every unit key's module component. */
std::uint64_t suiteModuleDigest(std::size_t i);

/** Fold one benchmark's PairResult into a BenchOutcome. */
BenchOutcome benchOutcomeOf(const std::string &name,
                            const PairResult &r);

/** Render @p plan's figure (cycles: Fig. 3/4, blocksize: Fig. 5)
 *  from @p results by unit and return its outcomes; the drivers and
 *  the store renderer share it, so their text is byte-identical. */
std::vector<BenchOutcome> renderFigure(
    std::ostream &os, const SweepPlan &plan,
    const std::vector<PairResult> &results);

/** Render figures 3/4 from already-computed outcomes. */
void renderCycleComparison(std::ostream &os,
                           const std::vector<BenchOutcome> &outcomes,
                           bool perfectPrediction);

/** Render figure 5 from already-computed outcomes. */
void renderBlockSizeComparison(
    std::ostream &os, const std::vector<BenchOutcome> &outcomes);

/** Table 1: instruction classes and latencies. */
void printTable1(std::ostream &os);

/** Table 2: benchmarks, inputs, dynamic instruction counts. */
std::vector<BenchOutcome> printTable2(std::ostream &os);

/** Figures 3/4: total cycles, conventional vs block-structured; set
 *  @p perfectPrediction for figure 4. */
std::vector<BenchOutcome> runCycleComparison(std::ostream &os,
                                             bool perfectPrediction);

/** Figure 5: average retired block sizes. */
std::vector<BenchOutcome> runBlockSizeComparison(std::ostream &os);

/** Figures 6/7: relative execution-time increase over a perfect
 *  icache for 16/32/64 KB icaches; one row per benchmark, one column
 *  per size.  @p blockStructured selects the machine; both figures
 *  come from one grid that simulates both machines. */
struct IcacheSweepRow
{
    std::string name;
    /** Relative increase per icache size, icacheSizesKB order. */
    std::vector<double> relativeIncrease;
};
extern const std::vector<unsigned> icacheSizesKB;
std::vector<IcacheSweepRow> runIcacheSweep(std::ostream &os,
                                           bool blockStructured);

/** Ablation: enlargement limits (issue width / fault budget). */
void runLimitsAblation(std::ostream &os);

/** Ablation: profile-guided merge filtering (section-6 extension). */
void runProfileAblation(std::ostream &os);

/** Ablation: predictor geometry sweep. */
void runPredictorAblation(std::ostream &os);

/** Ablation: enlargement termination conditions 4 (loop iterations)
 *  and 5 (library code) lifted, one at a time and together. */
void runConditionsAblation(std::ostream &os);

/** The synthetic suite's dynamic character: code footprint, block
 *  size, call and library shares, branch accuracy, dcache misses
 *  (the evidence for DESIGN.md's workload substitution). */
void runWorkloadReport(std::ostream &os);

/** Extension: the block-structured ISA vs a conventional machine
 *  with a 64- or 256-entry trace cache (the paper's section 3). */
void runTraceCacheComparison(std::ostream &os);

/** Extension: small-leaf inlining before enlargement (section 6). */
void runInlineExtension(std::ostream &os);

} // namespace bsisa

#endif // BSISA_EXP_FIGURES_HH
