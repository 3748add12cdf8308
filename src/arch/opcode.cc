/**
 * @file
 * Opcode property tables.
 */

#include "arch/opcode.hh"

#include "support/logging.hh"

namespace bsisa
{

InstrClass
opcodeClass(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
      case Opcode::MovI:
      case Opcode::Mov:
      case Opcode::Add:
      case Opcode::AddI:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::AndI:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::CmpEq:
      case Opcode::CmpEqI:
      case Opcode::CmpNe:
      case Opcode::CmpLt:
      case Opcode::CmpLtI:
      case Opcode::CmpLe:
        return InstrClass::IntAlu;
      case Opcode::Shl:
      case Opcode::ShlI:
      case Opcode::Shr:
      case Opcode::ShrI:
      case Opcode::BitTest:
        return InstrClass::BitField;
      case Opcode::Mul:
      case Opcode::FMul:
        return InstrClass::FpIntMul;
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::FDiv:
        return InstrClass::FpIntDiv;
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FCvt:
        return InstrClass::FpAdd;
      case Opcode::Ld:
        return InstrClass::Load;
      case Opcode::St:
        return InstrClass::Store;
      case Opcode::Jmp:
      case Opcode::Trap:
      case Opcode::Fault:
      case Opcode::Call:
      case Opcode::IJmp:
      case Opcode::Ret:
      case Opcode::Halt:
        return InstrClass::Branch;
    }
    panic("bad opcode");
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::MovI: return "movi";
      case Opcode::Mov: return "mov";
      case Opcode::Add: return "add";
      case Opcode::AddI: return "addi";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::AndI: return "andi";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::CmpEq: return "cmpeq";
      case Opcode::CmpEqI: return "cmpeqi";
      case Opcode::CmpNe: return "cmpne";
      case Opcode::CmpLt: return "cmplt";
      case Opcode::CmpLtI: return "cmplti";
      case Opcode::CmpLe: return "cmple";
      case Opcode::Shl: return "shl";
      case Opcode::ShlI: return "shli";
      case Opcode::Shr: return "shr";
      case Opcode::ShrI: return "shri";
      case Opcode::BitTest: return "bittest";
      case Opcode::Mul: return "mul";
      case Opcode::FMul: return "fmul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::FDiv: return "fdiv";
      case Opcode::FAdd: return "fadd";
      case Opcode::FSub: return "fsub";
      case Opcode::FCvt: return "fcvt";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::Jmp: return "jmp";
      case Opcode::Trap: return "trap";
      case Opcode::Fault: return "fault";
      case Opcode::Call: return "call";
      case Opcode::IJmp: return "ijmp";
      case Opcode::Ret: return "ret";
      case Opcode::Halt: return "halt";
    }
    panic("bad opcode");
}

} // namespace bsisa
