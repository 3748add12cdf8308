/**
 * @file
 * CFG simplification: constant-branch folding, jump threading,
 * straight-line merging, and unreachable-block removal.
 */

#include "opt/passes.hh"

#include "ir/cfg.hh"
#include "support/logging.hh"

namespace bsisa
{

namespace
{

/** True for a block containing only "jmp". */
bool
isTrivialJump(const Block &blk)
{
    return blk.ops.size() == 1 && blk.ops[0].op == Opcode::Jmp;
}

/** Follow chains of trivial jumps (with a cycle guard). */
BlockId
threadTarget(const Function &func, BlockId start)
{
    BlockId cur = start;
    for (unsigned hops = 0; hops < func.blocks.size(); ++hops) {
        const Block &blk = func.blocks[cur];
        if (!blk.sealed() || !isTrivialJump(blk))
            return cur;
        const BlockId next = blk.ops[0].target0;
        if (next == cur)
            return cur;  // self-loop; leave it
        cur = next;
    }
    return cur;
}

} // namespace

OptStats
simplifyCFG(Function &func)
{
    OptStats stats;

    // 1. Degenerate traps become jumps.
    for (Block &blk : func.blocks) {
        if (!blk.ops.empty() && blk.terminator().op == Opcode::Trap &&
            blk.terminator().target0 == blk.terminator().target1) {
            blk.terminator() = makeJmp(blk.terminator().target0);
            ++stats.branchesSimplified;
        }
    }

    // 2. Jump threading: retarget every edge through trivial-jump
    //    blocks.
    auto rewrite_targets = [&](auto &&rewrite) {
        for (Block &blk : func.blocks) {
            if (blk.ops.empty())
                continue;
            Operation &t = blk.terminator();
            switch (t.op) {
              case Opcode::Jmp:
              case Opcode::Call:
                t.target0 = rewrite(t.target0);
                break;
              case Opcode::Trap:
                t.target0 = rewrite(t.target0);
                t.target1 = rewrite(t.target1);
                break;
              default:
                break;
            }
        }
        for (auto &table : func.jumpTables)
            for (BlockId &target : table)
                target = rewrite(target);
    };

    rewrite_targets([&](BlockId b) { return threadTarget(func, b); });

    // 3. Merge single-predecessor straight-line successors, lowest
    //    block first.  Splicing succ into b hands succ's out-edges to
    //    b, so every predecessor count stays put except succ's, which
    //    drops to zero; blocks before b were not mergeable and still
    //    are not, so the scan resumes at b.
    std::vector<unsigned> pred_count(func.blocks.size(), 0);
    for (BlockId b = 0; b < func.blocks.size(); ++b)
        forEachSuccessor(func, b, [&](BlockId s) { ++pred_count[s]; });
    // A jump-table target is never spliced (the table edge is not
    // reflected in single-pred splicing).
    std::vector<bool> in_table(func.blocks.size(), false);
    for (const auto &table : func.jumpTables)
        for (BlockId target : table)
            in_table[target] = true;
    for (BlockId b = 0; b < func.blocks.size();) {
        Block &blk = func.blocks[b];
        const BlockId succ = blk.ops.empty() ||
                                     blk.terminator().op != Opcode::Jmp
                                 ? b
                                 : blk.terminator().target0;
        if (succ == b || succ == 0 || pred_count[succ] != 1 ||
            in_table[succ]) {
            ++b;
            continue;
        }
        blk.ops.pop_back();
        Block &victim = func.blocks[succ];
        blk.ops.insert(blk.ops.end(), victim.ops.begin(), victim.ops.end());
        victim.ops.clear();
        // Edge-free placeholder terminator: the block is now
        // unreachable and must not re-enter the merge analysis.
        victim.ops.push_back(makeRet());
        pred_count[succ] = 0;
        ++stats.blocksMerged;
    }

    // 4. Drop unreachable blocks and renumber.
    const auto reachable = reachableBlocks(func);
    std::vector<BlockId> renumber(func.blocks.size(), invalidId);
    std::vector<Block> kept;
    for (BlockId b = 0; b < func.blocks.size(); ++b) {
        if (reachable[b]) {
            renumber[b] = static_cast<BlockId>(kept.size());
            kept.push_back(std::move(func.blocks[b]));
        } else {
            ++stats.blocksRemoved;
        }
    }
    func.blocks = std::move(kept);
    rewrite_targets([&](BlockId b) {
        // Unreachable targets can only appear inside unreachable
        // blocks or stale jump tables; park them at the entry.
        return renumber[b] == invalidId ? 0 : renumber[b];
    });

    return stats;
}

OptStats
optimizeFunction(Function &func)
{
    OptStats total;
    for (unsigned round = 0; round < 4; ++round) {
        const unsigned folded = constantFold(func);
        const unsigned copies = copyPropagate(func);
        const unsigned cse = localCSE(func);
        const unsigned dead = deadCodeElim(func);
        total.folded += folded;
        total.copiesProp += copies;
        total.cseReplaced += cse;
        total.deadRemoved += dead;
        unsigned changes = folded + copies + cse + dead;
        const OptStats cfg = simplifyCFG(func);
        total.blocksRemoved += cfg.blocksRemoved;
        total.blocksMerged += cfg.blocksMerged;
        total.branchesSimplified += cfg.branchesSimplified;
        changes += cfg.blocksRemoved + cfg.blocksMerged +
                   cfg.branchesSimplified;
        if (changes == 0)
            break;
    }
    return total;
}

OptStats
optimizeModule(Module &module)
{
    OptStats total;
    for (Function &f : module.functions) {
        const OptStats s = optimizeFunction(f);
        total.folded += s.folded;
        total.copiesProp += s.copiesProp;
        total.cseReplaced += s.cseReplaced;
        total.deadRemoved += s.deadRemoved;
        total.blocksRemoved += s.blocksRemoved;
        total.blocksMerged += s.blocksMerged;
        total.branchesSimplified += s.branchesSimplified;
    }
    return total;
}

} // namespace bsisa
