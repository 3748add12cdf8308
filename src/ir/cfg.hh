/**
 * @file
 * Control-flow-graph utilities over a Function: successor/predecessor
 * computation, reverse post-order, and reachability.  The view is
 * intra-procedural: a Call's successor is its continuation block.
 */

#ifndef BSISA_IR_CFG_HH
#define BSISA_IR_CFG_HH

#include <vector>

#include "ir/module.hh"
#include "support/logging.hh"

namespace bsisa
{

/**
 * Call @p f(s) for each successor block id s of @p block within
 * @p func (deduplicated, stable order: taken/first target before
 * fall-through/second).  Allocates nothing; the hot analyses walk the
 * CFG through this.
 */
template <typename F>
void
forEachSuccessor(const Function &func, BlockId block, F &&f)
{
    BSISA_ASSERT(block < func.blocks.size());
    const Block &b = func.blocks[block];
    BSISA_ASSERT(b.sealed(), "block ", block, " of ", func.name,
                 " lacks a terminator");
    const Operation &t = b.terminator();
    switch (t.op) {
      case Opcode::Jmp:
      case Opcode::Call:
        f(t.target0);
        return;
      case Opcode::Trap:
        f(t.target0);
        if (t.target1 != t.target0)
            f(t.target1);
        return;
      case Opcode::IJmp: {
        BSISA_ASSERT(static_cast<std::size_t>(t.imm) <
                     func.jumpTables.size());
        const std::vector<BlockId> &table = func.jumpTables[t.imm];
        for (std::size_t i = 0; i < table.size(); ++i) {
            bool seen = false;
            for (std::size_t j = 0; j < i && !seen; ++j)
                seen = table[j] == table[i];
            if (!seen)
                f(table[i]);
        }
        return;
      }
      case Opcode::Ret:
      case Opcode::Halt:
        return;
      default:
        panic("non-terminator ", opcodeName(t.op), " ends block");
    }
}

/** Successor block ids of @p block, as forEachSuccessor visits them. */
std::vector<BlockId> blockSuccessors(const Function &func, BlockId block);

/** Predecessor lists for every block of @p func. */
std::vector<std::vector<BlockId>> blockPredecessors(const Function &func);

/** Blocks in reverse post-order from the entry; unreachable blocks are
 *  omitted. */
std::vector<BlockId> reversePostOrder(const Function &func);

/** Per-block reachability from the entry. */
std::vector<bool> reachableBlocks(const Function &func);

} // namespace bsisa

#endif // BSISA_IR_CFG_HH
