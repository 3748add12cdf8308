/**
 * @file
 * Global dead-code elimination.
 *
 * Uses liveness to delete pure operations whose destination is dead at
 * their program point.  Stores, calls, faults, and terminators are
 * never deleted.
 */

#include "opt/passes.hh"
#include "regalloc/liveness.hh"

namespace bsisa
{

namespace
{

bool
hasSideEffects(const Operation &op)
{
    switch (op.op) {
      case Opcode::St:
      case Opcode::Fault:
        return true;
      default:
        return op.terminates();
    }
}

} // namespace

unsigned
deadCodeElim(Function &func)
{
    const Liveness live = computeLiveness(func);
    unsigned removed = 0;
    RegSet alive(func.numVirtualRegs);

    for (BlockId b = 0; b < func.blocks.size(); ++b) {
        std::vector<Operation> &ops = func.blocks[b].ops;
        alive.assign(live.liveOutRow(b));
        // Backward walk dropping dead pure definitions; survivors are
        // packed against the block's end, then slid to its front.
        std::size_t kept_from = ops.size();
        for (std::size_t i = ops.size(); i-- > 0;) {
            const Operation &op = ops[i];
            const RegNum def = opDef(op);
            if (def != invalidId) {
                if (!hasSideEffects(op) && !alive.contains(def)) {
                    ++removed;
                    continue;
                }
                alive.erase(def);
            }
            forEachUse(op, [&](RegNum u) { alive.insert(u); });
            if (--kept_from != i)
                ops[kept_from] = op;
        }
        ops.erase(ops.begin(), ops.begin() + std::ptrdiff_t(kept_from));
    }
    return removed;
}

} // namespace bsisa
