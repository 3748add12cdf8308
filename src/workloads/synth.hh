/**
 * @file
 * Synthetic SPECint95-like workload generation.
 *
 * The paper evaluates on SPECint95 binaries compiled by a retargeted
 * Intel Reference C Compiler.  Neither is available, so we generate
 * structured programs whose *architecturally relevant* characteristics
 * match each benchmark: hot code footprint (drives icache behaviour
 * and figure 6/7), dynamic basic-block size (figure 5), branch
 * predictability mix (figures 3 vs 4), call density (the paper's main
 * limiter on block enlargement), and data footprint.
 *
 * Branch conditions come in three flavours:
 *   - pattern: derived from loop counters; two-level predictable;
 *   - biased:  pseudo-random with probability biasedP; accuracy is
 *              approximately max(p, 1-p);
 *   - random:  pseudo-random 50/50; essentially unpredictable.
 * The per-benchmark mix tunes overall prediction accuracy.
 *
 * Generation is fully deterministic from the seed; programs terminate
 * naturally but are sized so experiments normally stop at the
 * configured dynamic-op budget.
 */

#ifndef BSISA_WORKLOADS_SYNTH_HH
#define BSISA_WORKLOADS_SYNTH_HH

#include <cstdint>
#include <string>

#include "ir/module.hh"

namespace bsisa
{

/** Shape parameters for one synthetic benchmark. */
struct WorkloadParams
{
    std::string name;
    std::uint64_t seed = 1;

    /** Number of application functions (excluding main). */
    unsigned numFuncs = 24;
    /** Number of library functions (never enlarged, condition 5). */
    unsigned numLibFuncs = 4;
    /** Items (statement groups) per function body. */
    unsigned itemsPerFunc = 10;
    /** Mean operations per compute burst (drives basic-block size). */
    double meanBurstOps = 4.0;
    /** Probability an item is an if/else diamond. */
    double branchDensity = 0.45;
    /** Probability an item is a counted loop. */
    double loopDensity = 0.15;
    /** Probability an item is a call to another function. */
    double callDensity = 0.2;
    /** Probability an item is a switch (indirect jump). */
    double switchDensity = 0.03;
    /** Loop trip counts drawn from [2, maxLoopTrip]. */
    unsigned maxLoopTrip = 8;

    /** Branch-behaviour mix; must sum to <= 1 (rest is biased). */
    double fracPattern = 0.45;
    double fracRandom = 0.10;
    /** Taken probability of biased branches. */
    double biasedP = 0.88;

    /** Fraction of FP-class operations in compute bursts. */
    double fpFraction = 0.05;
    /** Fraction of multiply/divide in compute bursts. */
    double mulDivFraction = 0.08;
    /** Loads+stores per compute burst, roughly. */
    double memOpsPerBurst = 1.2;

    /** Global data words (dcache footprint). */
    unsigned dataWords = 4096;
    /** Fraction of functions called every main-loop iteration; the
     *  rest are called every 16th iteration (hot/cold locality). */
    double hotFraction = 0.6;
    /** Fraction of call sites that target library functions (the
     *  paper's unenlargeable code, condition 5). */
    double libCallFraction = 0.12;
    /** Main-loop trip count (experiments usually stop at the dynamic
     *  op budget first). */
    std::uint64_t mainTrips = 1u << 30;
    /** Inline small leaf functions before optimization (the paper's
     *  section-6 extension). */
    bool inlineSmallCalls = false;
};

/** Largest basic block of a generated module, in ops: the generator
 *  splits every longer block.  Enlargement never splits a basic
 *  block, so its op cap (EnlargeConfig::maxOps) may not be smaller. */
constexpr unsigned suiteBlockOps = 16;

/**
 * Generate, optimize, register-allocate, and block-split a workload
 * (at suiteBlockOps); the returned module is ready for both machines.
 */
Module generateWorkload(const WorkloadParams &params);

/** Static op count the generator aims at is emergent; this helper
 *  reports the conventional code bytes of a generated module. */
std::uint64_t workloadCodeBytes(const Module &module);

} // namespace bsisa

#endif // BSISA_WORKLOADS_SYNTH_HH
