/**
 * @file
 * Block-local constant folding and propagation.
 *
 * Tracks registers holding known constants within a block (seeded by
 * MovI), folds fully-constant pure operations into MovI, rewrites
 * reg+constant adds into AddI forms, and turns constant-condition
 * traps into jumps.
 */

#include <bit>
#include <vector>

#include "opt/passes.hh"
#include "regalloc/liveness.hh"

namespace bsisa
{

namespace
{

/** Evaluate a pure binary op on constants; mirrors the interpreter. */
bool
evalPure(const Operation &op, std::uint64_t a, std::uint64_t b,
         std::uint64_t &out)
{
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    switch (op.op) {
      case Opcode::Mov: out = a; return true;
      case Opcode::Add: out = a + b; return true;
      case Opcode::AddI: out = a + static_cast<std::uint64_t>(op.imm);
        return true;
      case Opcode::Sub: out = a - b; return true;
      case Opcode::And: out = a & b; return true;
      case Opcode::AndI: out = a & static_cast<std::uint64_t>(op.imm);
        return true;
      case Opcode::Or: out = a | b; return true;
      case Opcode::Xor: out = a ^ b; return true;
      case Opcode::CmpEq: out = a == b; return true;
      case Opcode::CmpEqI:
        out = a == static_cast<std::uint64_t>(op.imm);
        return true;
      case Opcode::CmpNe: out = a != b; return true;
      case Opcode::CmpLt: out = sa < sb; return true;
      case Opcode::CmpLtI: out = sa < op.imm; return true;
      case Opcode::CmpLe: out = sa <= sb; return true;
      case Opcode::Shl: out = a << (b & 63); return true;
      case Opcode::ShlI: out = a << (op.imm & 63); return true;
      case Opcode::Shr: out = a >> (b & 63); return true;
      case Opcode::ShrI: out = a >> (op.imm & 63); return true;
      case Opcode::BitTest: out = (a >> (b & 63)) & 1; return true;
      case Opcode::Mul: out = a * b; return true;
      case Opcode::Div:
        if (sb == 0) {
            out = 0;
        } else if (sa == INT64_MIN && sb == -1) {
            out = static_cast<std::uint64_t>(INT64_MIN);
        } else {
            out = static_cast<std::uint64_t>(sa / sb);
        }
        return true;
      case Opcode::Rem:
        if (sb == 0) {
            out = a;
        } else if (sa == INT64_MIN && sb == -1) {
            out = 0;
        } else {
            out = static_cast<std::uint64_t>(sa % sb);
        }
        return true;
      default:
        return false;  // FP folding is skipped: keep bit-exactness
                       // decisions out of the mid-end
    }
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
                op.op != Opcode::Ld && evalPure(op, a, b, result)) {
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
