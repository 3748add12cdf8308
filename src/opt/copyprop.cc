/**
 * @file
 * Block-local copy propagation.
 *
 * After "mov dst, src", later reads of dst are rewritten to src until
 * either register is redefined.  Copies through chains resolve to the
 * oldest still-valid source.
 */

#include <vector>

#include "opt/passes.hh"
#include "regalloc/liveness.hh"

namespace bsisa
{

unsigned
copyPropagate(Function &func)
{
    unsigned rewritten = 0;
    // copy_of[r] = the register r currently mirrors (invalidId: none),
    // valid while that source's version still equals src_ver[r]; a
    // redefinition bumps the register's version, which retires every
    // copy of it at once.  Registers a block defined are listed in
    // touched and their copies dropped before the next block.
    std::vector<RegNum> copy_of(func.numVirtualRegs, invalidId);
    std::vector<unsigned> src_ver(func.numVirtualRegs, 0);
    std::vector<unsigned> version(func.numVirtualRegs, 0);
    std::vector<RegNum> touched;

    for (Block &blk : func.blocks) {
        for (RegNum r : touched)
            copy_of[r] = invalidId;
        touched.clear();

        auto resolve = [&](RegNum r) {
            const RegNum src = copy_of[r];
            return src != invalidId && version[src] == src_ver[r] ? src : r;
        };

        for (Operation &op : blk.ops) {
            const unsigned nsrc = numSources(op.op);
            if (nsrc >= 1) {
                const RegNum r = resolve(op.src1);
                if (r != op.src1) {
                    op.src1 = r;
                    ++rewritten;
                }
            }
            if (nsrc >= 2) {
                const RegNum r = resolve(op.src2);
                if (r != op.src2) {
                    op.src2 = r;
                    ++rewritten;
                }
            }

            const RegNum def = opDef(op);
            if (def == invalidId)
                continue;
            ++version[def];
            copy_of[def] = invalidId;
            touched.push_back(def);
            if (op.op == Opcode::Mov && op.src1 != def) {
                copy_of[def] = op.src1;
                src_ver[def] = version[op.src1];
            }
        }
    }
    return rewritten;
}

} // namespace bsisa
