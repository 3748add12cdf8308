/**
 * @file
 * Cooper-Harvey-Kennedy dominator computation.
 */

#include "ir/dom.hh"

#include "ir/cfg.hh"
#include "support/logging.hh"

namespace bsisa
{

DomInfo::DomInfo(const Function &func)
    : idoms(func.blocks.size(), invalidId),
      loopHeaders(func.blocks.size(), false),
      rpoIndex(func.blocks.size(), ~0u)
{
    const std::vector<BlockId> rpo = reversePostOrder(func);
    for (unsigned i = 0; i < rpo.size(); ++i)
        rpoIndex[rpo[i]] = i;

    const auto preds = blockPredecessors(func);

    auto intersect = [&](BlockId a, BlockId b) {
        while (a != b) {
            while (rpoIndex[a] > rpoIndex[b])
                a = idoms[a];
            while (rpoIndex[b] > rpoIndex[a])
                b = idoms[b];
        }
        return a;
    };

    if (rpo.empty())
        return;
    idoms[rpo[0]] = rpo[0];

    bool changed = true;
    while (changed) {
        changed = false;
        for (unsigned i = 1; i < rpo.size(); ++i) {
            const BlockId b = rpo[i];
            BlockId new_idom = invalidId;
            for (BlockId p : preds[b]) {
                if (idoms[p] == invalidId)
                    continue;  // unprocessed or unreachable
                new_idom = (new_idom == invalidId) ? p
                                                   : intersect(p, new_idom);
            }
            BSISA_ASSERT(new_idom != invalidId,
                         "reachable block with no processed predecessor");
            if (idoms[b] != new_idom) {
                idoms[b] = new_idom;
                changed = true;
            }
        }
    }

    // Natural loop headers: targets of back edges.
    for (BlockId b = 0; b < func.blocks.size(); ++b) {
        if (!reachable(b))
            continue;
        forEachSuccessor(func, b, [&](BlockId s) {
            if (dominates(s, b))
                loopHeaders[s] = true;
        });
    }
}

bool
DomInfo::dominates(BlockId a, BlockId b) const
{
    if (!reachable(a) || !reachable(b))
        return false;
    // Walk b's idom chain upward; a dominates b iff we meet a.
    BlockId cur = b;
    for (;;) {
        if (cur == a)
            return true;
        const BlockId up = idoms[cur];
        if (up == cur)
            return false;  // reached the entry
        cur = up;
    }
}

BlockId
DomInfo::idom(BlockId block) const
{
    return idoms[block];
}

bool
DomInfo::isBackEdge(BlockId from, BlockId to) const
{
    return reachable(from) && dominates(to, from);
}

bool
DomInfo::isLoopHeader(BlockId block) const
{
    return loopHeaders[block];
}

bool
DomInfo::reachable(BlockId block) const
{
    return block < idoms.size() && idoms[block] != invalidId;
}

} // namespace bsisa
