/**
 * @file
 * Operation factories and printing.
 */

#include "arch/operation.hh"


namespace bsisa
{

void
writeOperation(TextWriter &os, const Operation &o)
{
    os << opcodeName(o.op);
    switch (o.op) {
      case Opcode::Nop:
        break;
      case Opcode::MovI:
        os << " r" << o.dst << ", " << o.imm;
        break;
      case Opcode::Mov:
      case Opcode::FCvt:
        os << " r" << o.dst << ", r" << o.src1;
        break;
      case Opcode::AddI:
      case Opcode::AndI:
      case Opcode::CmpEqI:
      case Opcode::CmpLtI:
      case Opcode::ShlI:
      case Opcode::ShrI:
        os << " r" << o.dst << ", r" << o.src1 << ", " << o.imm;
        break;
      case Opcode::Ld:
        os << " r" << o.dst << ", [r" << o.src1 << " + " << o.imm << "]";
        break;
      case Opcode::St:
        os << " [r" << o.src1 << " + " << o.imm << "], r" << o.src2;
        break;
      case Opcode::Jmp:
        os << " B" << o.target0;
        break;
      case Opcode::Trap:
        os << " r" << o.src1 << ", B" << o.target0 << ", B" << o.target1
           << " (succBits " << unsigned(o.succBits) << ")";
        break;
      case Opcode::Fault:
        os << " r" << o.src1 << ", AB" << o.target0;
        if (o.imm != 0)
            os << ", inv";  // fires when the condition is FALSE
        break;
      case Opcode::Call:
        os << " f" << o.callee << ", cont B" << o.target0;
        break;
      case Opcode::IJmp:
        os << " r" << o.src1 << ", table " << o.imm;
        break;
      case Opcode::Ret:
      case Opcode::Halt:
        break;
      default:
        os << " r" << o.dst << ", r" << o.src1 << ", r" << o.src2;
        break;
    }
}

std::string
Operation::toString() const
{
    TextWriter os;
    writeOperation(os, *this);
    return std::move(os).str();
}

Operation
makeNop()
{
    return Operation{};
}

Operation
makeMovI(RegNum dst, std::int64_t imm)
{
    Operation o;
    o.op = Opcode::MovI;
    o.dst = dst;
    o.imm = imm;
    return o;
}

Operation
makeMov(RegNum dst, RegNum src)
{
    Operation o;
    o.op = Opcode::Mov;
    o.dst = dst;
    o.src1 = src;
    return o;
}

Operation
makeBin(Opcode op, RegNum dst, RegNum s1, RegNum s2)
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src1 = s1;
    o.src2 = s2;
    return o;
}

Operation
makeBinI(Opcode op, RegNum dst, RegNum s1, std::int64_t imm)
{
    Operation o;
    o.op = op;
    o.dst = dst;
    o.src1 = s1;
    o.imm = imm;
    return o;
}

Operation
makeLd(RegNum dst, RegNum base, std::int64_t off)
{
    Operation o;
    o.op = Opcode::Ld;
    o.dst = dst;
    o.src1 = base;
    o.imm = off;
    return o;
}

Operation
makeSt(RegNum base, std::int64_t off, RegNum value)
{
    Operation o;
    o.op = Opcode::St;
    o.src1 = base;
    o.src2 = value;
    o.imm = off;
    return o;
}

Operation
makeJmp(BlockId target)
{
    Operation o;
    o.op = Opcode::Jmp;
    o.target0 = target;
    return o;
}

Operation
makeTrap(RegNum cond, BlockId taken, BlockId notTaken)
{
    Operation o;
    o.op = Opcode::Trap;
    o.src1 = cond;
    o.target0 = taken;
    o.target1 = notTaken;
    return o;
}

Operation
makeFault(RegNum cond, AtomicBlockId target)
{
    Operation o;
    o.op = Opcode::Fault;
    o.src1 = cond;
    o.target0 = target;
    return o;
}

Operation
makeCall(FuncId callee, BlockId continuation)
{
    Operation o;
    o.op = Opcode::Call;
    o.callee = callee;
    o.target0 = continuation;
    return o;
}

Operation
makeIJmp(RegNum index, std::uint32_t tableIndex)
{
    Operation o;
    o.op = Opcode::IJmp;
    o.src1 = index;
    o.imm = tableIndex;
    return o;
}

Operation
makeRet()
{
    Operation o;
    o.op = Opcode::Ret;
    return o;
}

Operation
makeHalt()
{
    Operation o;
    o.op = Opcode::Halt;
    return o;
}

} // namespace bsisa
