/**
 * @file
 * The block enlargement optimization (the paper's core contribution).
 *
 * Converts a register-allocated conventional Module into a BsaModule,
 * merging basic blocks with their control-flow successors into
 * enlarged atomic blocks under the paper's five termination
 * conditions (section 4.2):
 *   1. the enlarged block may not exceed the issue width (maxOps);
 *   2. at most maxFaults fault operations per block (bounding the
 *      successor count at 8);
 *   3. blocks connected via call, return, or indirect jump are never
 *      combined;
 *   4. separate loop iterations are never combined (no merging across
 *      natural-loop back edges);
 *   5. library functions are never enlarged.
 *
 * An optional branch-bias profile enables the paper's section-6
 * "profiling" extension: traps whose dynamic bias is weaker than
 * minMergeBias are not merged, trading block size for less code
 * duplication.
 */

#ifndef BSISA_CORE_ENLARGE_HH
#define BSISA_CORE_ENLARGE_HH

#include "core/bsa.hh"
#include "core/profile.hh"

namespace bsisa
{

/** Enlargement parameters; defaults reproduce the paper. */
struct EnlargeConfig
{
    /** Condition 1: maximum operations per atomic block. */
    unsigned maxOps = 16;
    /** Condition 2: maximum fault operations per atomic block. */
    unsigned maxFaults = 2;
    /** Disable condition 4 (ablation only; the paper keeps it). */
    bool mergeAcrossBackEdges = false;
    /** Disable condition 5 (ablation only; the paper keeps it). */
    bool enlargeLibraryFunctions = false;
    /** Master switch: false produces one atomic block per basic
     *  block (the degenerate block-structured program). */
    bool enabled = true;
    /** Cap on emitted variants per head (8 successors per block =
     *  4 variants per trap side). */
    unsigned maxVariantsPerHead = 4;
    /** Profile-guided merging: only merge a trap whose taken-bias
     *  max(p, 1-p) is at least this (0 disables the filter). */
    double minMergeBias = 0.0;

    bool operator==(const EnlargeConfig &) const = default;
};

/** Aggregate statistics of an enlargement run. */
struct EnlargeStats
{
    std::size_t srcOps = 0;        //!< reachable conventional ops
    std::size_t bsaOps = 0;        //!< ops across all atomic blocks
    std::size_t atomicBlocks = 0;
    std::size_t mergedEdges = 0;   //!< fault conversions performed
    std::size_t thruMerges = 0;    //!< jumps deleted
    std::size_t heads = 0;

    bool operator==(const EnlargeStats &) const = default;

    double
    expansion() const
    {
        return srcOps ? double(bsaOps) / double(srcOps) : 1.0;
    }
};

/**
 * Run block enlargement over @p module.
 *
 * @param module Any verified conventional program, register-allocated
 *               or not (every block must already satisfy ops <=
 *               config.maxOps; see splitOversizedBlocks).  Only the
 *               timing decode needs architectural registers.
 * @param config Termination-condition parameters.
 * @param profile Optional branch-bias profile for minMergeBias.
 * @param stats Optional out-param for statistics.
 */
BsaModule enlargeModule(const Module &module, const EnlargeConfig &config,
                        const ProfileData *profile = nullptr,
                        EnlargeStats *stats = nullptr);

/**
 * Split any basic block larger than @p maxOps into a chain of blocks
 * linked by unconditional jumps, in place.  Run before enlargement so
 * condition 1 is satisfiable; both ISAs execute the split module so
 * the committed block streams stay aligned.
 */
unsigned splitOversizedBlocks(Module &module, unsigned maxOps);

} // namespace bsisa

#endif // BSISA_CORE_ENLARGE_HH
