/**
 * @file
 * Block-local constant folding and propagation.
 *
 * Tracks registers holding known constants within a block (seeded by
 * MovI), folds fully-constant pure operations into MovI, rewrites
 * reg+constant adds into AddI forms, and turns constant-condition
 * traps into jumps.
 */

#include <cstdint>
#include <vector>

#include "opt/passes.hh"
#include "regalloc/liveness.hh"
#include "sim/alu.hh"

namespace bsisa
{

namespace
{

/** FP results are never folded: keep bit-exactness decisions out of
 *  the mid-end. */
constexpr bool
isFloatOp(Opcode op)
{
    return op == Opcode::FAdd || op == Opcode::FSub ||
           op == Opcode::FMul || op == Opcode::FDiv || op == Opcode::FCvt;
}

} // namespace

unsigned
constantFold(Function &func)
{
    unsigned folded = 0;
    // Block-local constants: value[r] is r's value while known[r];
    // registers made known are listed in touched and forgotten before
    // the next block.
    std::vector<std::uint64_t> value(func.numVirtualRegs);
    std::vector<bool> known(func.numVirtualRegs, false);
    std::vector<RegNum> touched;
    auto set_constant = [&](RegNum r, std::uint64_t v) {
        value[r] = v;
        known[r] = true;
        touched.push_back(r);
    };

    for (Block &blk : func.blocks) {
        for (RegNum r : touched)
            known[r] = false;
        touched.clear();
        for (Operation &op : blk.ops) {
            // Fold the trap condition if known.
            if (op.op == Opcode::Trap) {
                if (known[op.src1] && op.src1 != regZero) {
                    const BlockId target =
                        value[op.src1] != 0 ? op.target0 : op.target1;
                    op = makeJmp(target);
                    ++folded;
                }
                continue;
            }
            if (op.op == Opcode::Trap || !hasDest(op.op)) {
                continue;
            }

            if (op.op == Opcode::MovI) {
                set_constant(op.dst, static_cast<std::uint64_t>(op.imm));
                continue;
            }

            const unsigned nsrc = numSources(op.op);
            std::uint64_t a = 0, b = 0;
            bool a_known = false, b_known = false;
            if (nsrc >= 1) {
                if (op.src1 == regZero) {
                    a = 0;
                    a_known = true;
                } else if (known[op.src1]) {
                    a = value[op.src1];
                    a_known = true;
                }
            }
            if (nsrc >= 2) {
                if (op.src2 == regZero) {
                    b = 0;
                    b_known = true;
                } else if (known[op.src2]) {
                    b = value[op.src2];
                    b_known = true;
                }
            }

            std::uint64_t result;
            if ((nsrc == 0 || a_known) && (nsrc < 2 || b_known) &&
                !isFloatOp(op.op) && evalAluOp(op, a, b, result)) {
                op = makeMovI(op.dst, static_cast<std::int64_t>(result));
                set_constant(op.dst, result);
                ++folded;
                continue;
            }

            // Strength reduction: reg (op) const -> immediate form.
            if (nsrc == 2 && b_known && !a_known) {
                const std::int64_t imm = static_cast<std::int64_t>(b);
                Opcode new_op = op.op;
                switch (op.op) {
                  case Opcode::Add: new_op = Opcode::AddI; break;
                  case Opcode::Sub: new_op = Opcode::AddI; break;
                  case Opcode::And: new_op = Opcode::AndI; break;
                  case Opcode::CmpEq: new_op = Opcode::CmpEqI; break;
                  case Opcode::CmpLt: new_op = Opcode::CmpLtI; break;
                  case Opcode::Shl: new_op = Opcode::ShlI; break;
                  case Opcode::Shr: new_op = Opcode::ShrI; break;
                  default: break;
                }
                const bool negatable =
                    op.op != Opcode::Sub || imm != INT64_MIN;
                if (new_op != op.op && negatable) {
                    const std::int64_t value =
                        op.op == Opcode::Sub ? -imm : imm;
                    op = makeBinI(new_op, op.dst, op.src1, value);
                    ++folded;
                }
            }

            // The destination no longer holds a known constant.
            known[op.dst] = false;
        }
    }
    return folded;
}

} // namespace bsisa
