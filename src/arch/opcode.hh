/**
 * @file
 * Opcodes of the load/store ISA that underlies both the conventional
 * and the block-structured machine (section 4.1 of the paper: the
 * operations in an atomic block "correspond to the instructions of a
 * load/store architecture with the exception of conditional branches
 * with direct targets", which become trap and fault operations).
 */

#ifndef BSISA_ARCH_OPCODE_HH
#define BSISA_ARCH_OPCODE_HH

#include "arch/instr_class.hh"

namespace bsisa
{

enum class Opcode : unsigned char
{
    // Integer ALU (latency 1)
    Nop,
    MovI,    //!< dst = imm
    Mov,     //!< dst = src1
    Add,     //!< dst = src1 + src2
    AddI,    //!< dst = src1 + imm
    Sub,     //!< dst = src1 - src2
    And,     //!< dst = src1 & src2
    AndI,    //!< dst = src1 & imm
    Or,      //!< dst = src1 | src2
    Xor,     //!< dst = src1 ^ src2
    CmpEq,   //!< dst = (src1 == src2)
    CmpEqI,  //!< dst = (src1 == imm)
    CmpNe,   //!< dst = (src1 != src2)
    CmpLt,   //!< dst = (src1 < src2), signed
    CmpLtI,  //!< dst = (src1 < imm), signed
    CmpLe,   //!< dst = (src1 <= src2), signed

    // Bit field (latency 1)
    Shl,     //!< dst = src1 << (src2 & 63)
    ShlI,    //!< dst = src1 << (imm & 63)
    Shr,     //!< dst = src1 >> (src2 & 63), logical
    ShrI,    //!< dst = src1 >> (imm & 63), logical
    BitTest, //!< dst = (src1 >> (src2 & 63)) & 1

    // FP/INT multiply (latency 3)
    Mul,     //!< dst = src1 * src2
    FMul,    //!< dst = fp(src1) * fp(src2)

    // FP/INT divide (latency 8)
    Div,     //!< dst = src1 / src2, signed; x/0 == 0
    Rem,     //!< dst = src1 % src2, signed; x%0 == x
    FDiv,    //!< dst = fp(src1) / fp(src2)

    // FP add (latency 3)
    FAdd,    //!< dst = fp(src1) + fp(src2)
    FSub,    //!< dst = fp(src1) - fp(src2)
    FCvt,    //!< dst = double(int64(src1))

    // Memory (loads latency 2 + dcache, stores latency 1)
    Ld,      //!< dst = mem64[src1 + imm]
    St,      //!< mem64[src1 + imm] = src2

    // Control (latency 1).  Only these may terminate a block.
    Jmp,     //!< goto target0
    Trap,    //!< if (src1 != 0) goto target0 else goto target1
    Fault,   //!< if (src1 != 0) suppress block, goto atomic block target0
    Call,    //!< call function 'callee'; continue at target0 on return
    IJmp,    //!< goto jumpTable[imm][src1 % size]
    Ret,     //!< return to caller (value in regRet)
    Halt,    //!< stop the program
};

/** Instruction class (and thereby Table-1 latency) of an opcode. */
InstrClass opcodeClass(Opcode op);

/** Mnemonic for printing. */
const char *opcodeName(Opcode op);

/** True iff the opcode may appear only as a block terminator.  Fault
 *  is not a terminator: it sits in the interior of enlarged blocks. */
constexpr bool
isTerminator(Opcode op)
{
    switch (op) {
      case Opcode::Jmp:
      case Opcode::Trap:
      case Opcode::Call:
      case Opcode::IJmp:
      case Opcode::Ret:
      case Opcode::Halt:
        return true;
      default:
        return false;
    }
}

/** True iff the opcode writes a destination register. */
constexpr bool
hasDest(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::St:
      case Opcode::Jmp:
      case Opcode::Trap:
      case Opcode::Fault:
      case Opcode::Call:
      case Opcode::IJmp:
      case Opcode::Ret:
      case Opcode::Halt:
        return false;
      default:
        return true;
    }
}

/** Number of register sources read (0, 1, or 2). */
constexpr unsigned
numSources(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::MovI:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret:
      case Opcode::Halt:
        return 0;
      case Opcode::Mov:
      case Opcode::AddI:
      case Opcode::AndI:
      case Opcode::CmpEqI:
      case Opcode::CmpLtI:
      case Opcode::ShlI:
      case Opcode::ShrI:
      case Opcode::FCvt:
      case Opcode::Ld:
      case Opcode::Trap:
      case Opcode::Fault:
      case Opcode::IJmp:
        return 1;
      default:
        return 2;
    }
}

} // namespace bsisa

#endif // BSISA_ARCH_OPCODE_HH
