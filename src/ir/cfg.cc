/**
 * @file
 * CFG utility implementation.
 */

#include "ir/cfg.hh"

#include <algorithm>

namespace bsisa
{

std::vector<BlockId>
blockSuccessors(const Function &func, BlockId block)
{
    std::vector<BlockId> succs;
    forEachSuccessor(func, block, [&](BlockId s) { succs.push_back(s); });
    return succs;
}

std::vector<std::vector<BlockId>>
blockPredecessors(const Function &func)
{
    std::vector<std::vector<BlockId>> preds(func.blocks.size());
    for (BlockId b = 0; b < func.blocks.size(); ++b)
        forEachSuccessor(func, b,
                         [&](BlockId s) { preds[s].push_back(b); });
    return preds;
}

namespace
{

void
postOrderVisit(const Function &func, BlockId block,
               std::vector<bool> &seen, std::vector<BlockId> &order)
{
    seen[block] = true;
    forEachSuccessor(func, block, [&](BlockId s) {
        if (!seen[s])
            postOrderVisit(func, s, seen, order);
    });
    order.push_back(block);
}

} // namespace

std::vector<BlockId>
reversePostOrder(const Function &func)
{
    std::vector<bool> seen(func.blocks.size(), false);
    std::vector<BlockId> order;
    if (!func.blocks.empty())
        postOrderVisit(func, 0, seen, order);
    std::reverse(order.begin(), order.end());
    return order;
}

std::vector<bool>
reachableBlocks(const Function &func)
{
    std::vector<bool> seen(func.blocks.size(), false);
    std::vector<BlockId> order;
    if (!func.blocks.empty())
        postOrderVisit(func, 0, seen, order);
    return seen;
}

} // namespace bsisa
