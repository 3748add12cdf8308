/**
 * @file
 * Functional interpreter for block-structured ISA programs.
 *
 * Runs on the same ArchState as the conventional Interp (memory, the
 * register-window stack, call, return and branch successors; see
 * sim/interp.hh) and adds the architectural atomic-block discipline:
 * every operation of a block executes into shadow registers and a
 * store buffer; if any fault operation's condition fires, the whole
 * block is suppressed (no architectural effect) and control redirects
 * to the fault's target; otherwise the block commits atomically.
 *
 * The *variant policy* models the fetch engine's freedom: whenever
 * control reaches an enlargement head, any emitted variant of that
 * head is a legal block to fetch (a wrong one will fault its way to
 * the right one).  The equivalence property test runs an adversarial
 * random policy and checks that the final architectural state matches
 * the conventional interpreter exactly.
 */

#ifndef BSISA_SIM_BSA_INTERP_HH
#define BSISA_SIM_BSA_INTERP_HH

#include <functional>

#include "core/bsa.hh"
#include "sim/interp.hh"

namespace bsisa
{

/**
 * Picks which emitted variant to fetch for a head.
 * Receives the trie and must return one of trie.emitted's node
 * indices.
 */
using VariantPolicy =
    std::function<int(const BsaModule &, FuncId, const HeadTrie &)>;

/** Always fetch the head's first emitted variant (trie.emitted's
 *  front node): deterministic, and independent of the path taken. */
VariantPolicy firstVariantPolicy();

/** Random variant selection from a deterministic seed. */
VariantPolicy randomVariantPolicy(std::uint64_t seed);

class BsaInterp : public ArchState
{
  public:
    BsaInterp(const BsaModule &bsa, VariantPolicy policy,
              Interp::Limits limits);
    BsaInterp(const BsaModule &bsa, VariantPolicy policy)
        : BsaInterp(bsa, std::move(policy), Interp::Limits())
    {
    }

    /**
     * Execute one fetched atomic block (commit or suppress).
     * @retval false the program halted or hit a limit.
     */
    bool step();

    /** Run to completion or limit. */
    void run();

    /** Committed (architecturally executed) operations. */
    std::uint64_t committedOps() const { return nCommittedOps; }
    /** Operations executed then suppressed by faults. */
    std::uint64_t suppressedOps() const { return nSuppressedOps; }
    /** Blocks committed. */
    std::uint64_t committedBlocks() const { return nCommittedBlocks; }
    /** Blocks suppressed by a firing fault. */
    std::uint64_t suppressedBlocks() const { return nSuppressedBlocks; }

  private:
    const BsaModule &bsa;
    VariantPolicy policy;
    Interp::Limits limits;
    AtomicBlockId curBlock;
    std::uint64_t nCommittedOps = 0;
    std::uint64_t nSuppressedOps = 0;
    std::uint64_t nCommittedBlocks = 0;
    std::uint64_t nSuppressedBlocks = 0;

    /** Fetch the policy-chosen variant of (func, head). */
    AtomicBlockId fetchHead(FuncId func, BlockId head);
};

} // namespace bsisa

#endif // BSISA_SIM_BSA_INTERP_HH
