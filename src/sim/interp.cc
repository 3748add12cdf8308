/**
 * @file
 * Architectural state and conventional interpreter implementation.
 */

#include "sim/interp.hh"

#include <algorithm>
#include <atomic>

#include "sim/alu.hh"
#include "support/logging.hh"

namespace bsisa
{

namespace
{

std::atomic<std::uint64_t> interpCount{0};

} // namespace

std::uint64_t
interpInvocations()
{
    return interpCount.load(std::memory_order_relaxed);
}

ArchState::ArchState(const Module &mod) : module(mod)
{
    BSISA_ASSERT(mod.mainFunc < mod.functions.size());
    mem.init(Module::dataBase, mod.data);
    std::uint64_t boot[numArchRegs] = {};
    boot[regSp] = Module::stackBase;
    enter(mod.mainFunc, invalidId, boot);
}

void
ArchState::enter(FuncId func, BlockId retTo, const std::uint64_t *caller)
{
    const Function &fn = module.functions[func];
    std::vector<std::uint64_t> regs(
        std::max<RegNum>(fn.numVirtualRegs, numArchRegs), 0);
    std::copy_n(caller, numArchRegs, regs.begin());
    regs[regSp] -= fn.frameSize;
    frames.push_back({func, retTo, std::move(regs)});
}

void
ArchState::call(FuncId callee, BlockId retTo)
{
    if (frames.size() >= 100000)
        fatal("call stack overflow (runaway recursion?)");
    enter(callee, retTo, frames.back().regs.data());
}

BlockId
ArchState::ret()
{
    BSISA_ASSERT(frames.size() > 1,
                 "ret from the bottom frame; main must halt");
    const std::uint64_t ret_val = frames.back().regs[regRet];
    const BlockId ret_to = frames.back().retTo;
    frames.pop_back();
    frames.back().regs[regRet] = ret_val;
    return ret_to;
}

BlockId
ArchState::successor(const Operation &op, std::uint64_t s1) const
{
    switch (op.op) {
      case Opcode::Jmp:
        return op.target0;
      case Opcode::Trap:
        return s1 != 0 ? op.target0 : op.target1;
      case Opcode::IJmp: {
        const auto &table =
            module.functions[frames.back().func].jumpTables[op.imm];
        BSISA_ASSERT(!table.empty());
        return table[s1 % table.size()];
      }
      default:
        panic("no intra-function successor for ", opcodeName(op.op));
    }
}

Interp::Interp(const Module &mod, Limits lim)
    : ArchState(mod), limits(lim)
{
    interpCount.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Interp::readReg(const Frame &f, RegNum r) const
{
    if (r == regZero)
        return 0;
    BSISA_ASSERT(r < f.regs.size(), "register r", r, " out of range");
    return f.regs[r];
}

void
Interp::writeReg(Frame &f, RegNum r, std::uint64_t v)
{
    BSISA_ASSERT(r != regZero && r < f.regs.size());
    f.regs[r] = v;
}

bool
Interp::step(BlockEvent &ev)
{
    if (isHalted || ops >= limits.maxOps || blocks >= limits.maxBlocks)
        return false;

    Frame &frame = top();
    const Function &fn = module.functions[frame.func];
    BSISA_ASSERT(curBlock < fn.blocks.size());
    const Block &blk = fn.blocks[curBlock];
    BSISA_ASSERT(blk.sealed());

    ev.func = frame.func;
    ev.block = curBlock;
    ev.taken = false;
    memBuf.clear();

    for (const Operation &op : blk.ops) {
        ++ops;

        const unsigned nsrc = numSources(op.op);
        const std::uint64_t s1 = nsrc >= 1 ? readReg(frame, op.src1) : 0;
        const std::uint64_t s2 = nsrc >= 2 ? readReg(frame, op.src2) : 0;

        std::uint64_t result;
        if (evalAluOp(op, s1, s2, result)) {
            writeReg(frame, op.dst, result);
            continue;
        }

        switch (op.op) {
          case Opcode::Nop:
            break;
          case Opcode::Ld: {
            const std::uint64_t addr =
                s1 + static_cast<std::uint64_t>(op.imm);
            memBuf.push_back(addr);
            writeReg(frame, op.dst, mem.read(addr));
            break;
          }
          case Opcode::St: {
            const std::uint64_t addr =
                s1 + static_cast<std::uint64_t>(op.imm);
            memBuf.push_back(addr);
            mem.write(addr, s2);
            break;
          }
          case Opcode::Fault:
            panic("fault operation reached the conventional interpreter");
          case Opcode::Jmp:
          case Opcode::Trap:
          case Opcode::IJmp:
            ev.exit = op.op == Opcode::Jmp    ? ExitKind::Jump
                      : op.op == Opcode::Trap ? ExitKind::Trap
                                              : ExitKind::IJump;
            ev.taken = op.op == Opcode::Trap && s1 != 0;
            ev.nextFunc = frame.func;
            ev.nextBlock = successor(op, s1);
            break;
          case Opcode::Call:
            ev.exit = ExitKind::Call;
            ev.nextFunc = op.callee;
            ev.nextBlock = 0;
            call(op.callee, op.target0);
            break;
          case Opcode::Ret:
            ev.exit = ExitKind::Ret;
            ev.nextBlock = ret();
            ev.nextFunc = top().func;
            break;
          case Opcode::Halt:
            ev.exit = ExitKind::Halt;
            ev.nextFunc = invalidId;
            ev.nextBlock = invalidId;
            isHalted = true;
            break;
          default:
            panic("unhandled opcode ", opcodeName(op.op));
        }
        // 'frame' may dangle after Call/Ret; both are terminators so
        // the loop ends here anyway.
        if (op.op == Opcode::Call || op.op == Opcode::Ret)
            break;
    }

    ev.memAddrs = memBuf.data();
    ev.memCount = static_cast<std::uint32_t>(memBuf.size());

    ++blocks;
    if (!isHalted)
        curBlock = ev.nextBlock;
    return true;
}

void
Interp::run()
{
    BlockEvent ev;
    while (step(ev)) {
    }
}

} // namespace bsisa
