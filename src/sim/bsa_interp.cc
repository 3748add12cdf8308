/**
 * @file
 * Block-structured interpreter implementation.
 */

#include "sim/bsa_interp.hh"

#include <memory>

#include "sim/alu.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace bsisa
{

VariantPolicy
firstVariantPolicy()
{
    return [](const BsaModule &, FuncId, const HeadTrie &trie) {
        return trie.emitted.front();
    };
}

VariantPolicy
randomVariantPolicy(std::uint64_t seed)
{
    auto rng = std::make_shared<Rng>(seed);
    return [rng](const BsaModule &, FuncId, const HeadTrie &trie) {
        return trie.emitted[rng->nextBelow(trie.emitted.size())];
    };
}

BsaInterp::BsaInterp(const BsaModule &bsa_mod, VariantPolicy pol,
                     Interp::Limits lim)
    : ArchState(*bsa_mod.src), bsa(bsa_mod), policy(std::move(pol)),
      limits(lim), curBlock(fetchHead(module.mainFunc, 0))
{
}

AtomicBlockId
BsaInterp::fetchHead(FuncId func, BlockId head)
{
    const HeadTrie &trie = bsa.trie(func, head);
    const int node = policy(bsa, func, trie);
    BSISA_ASSERT(trie.nodes[node].block != invalidId,
                 "policy chose a pass-through node");
    return trie.nodes[node].block;
}

bool
BsaInterp::step()
{
    if (isHalted || nCommittedOps + nSuppressedOps >= limits.maxOps ||
        nCommittedBlocks + nSuppressedBlocks >= limits.maxBlocks) {
        return false;
    }

    const AtomicBlock &blk = bsa.blocks[curBlock];
    Frame &frame = top();
    BSISA_ASSERT(blk.func == frame.func,
                 "fetched block from the wrong function");

    // Speculation buffers: register shadow + store buffer.
    std::vector<std::uint64_t> shadow = frame.regs;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stores;

    auto read_reg = [&](RegNum r) {
        return r == regZero ? 0 : shadow[r];
    };
    auto read_mem = [&](std::uint64_t addr) -> std::uint64_t {
        for (auto it = stores.rbegin(); it != stores.rend(); ++it)
            if (it->first == (addr & ~7ULL))
                return it->second;
        return mem.readSpec(addr);
    };

    std::uint64_t exec_ops = 0;
    for (const Operation &op : blk.ops) {
        ++exec_ops;
        const unsigned nsrc = numSources(op.op);
        const std::uint64_t s1 = nsrc >= 1 ? read_reg(op.src1) : 0;
        const std::uint64_t s2 = nsrc >= 2 ? read_reg(op.src2) : 0;

        std::uint64_t result;
        if (evalAluOp(op, s1, s2, result)) {
            shadow[op.dst] = result;
            continue;
        }

        switch (op.op) {
          case Opcode::Nop:
            break;
          case Opcode::Ld:
            shadow[op.dst] =
                read_mem(s1 + static_cast<std::uint64_t>(op.imm));
            break;
          case Opcode::St:
            stores.emplace_back(
                (s1 + static_cast<std::uint64_t>(op.imm)) & ~7ULL, s2);
            break;
          case Opcode::Fault: {
            const bool inverted = op.imm != 0;
            const bool fires = inverted ? s1 == 0 : s1 != 0;
            if (fires) {
                // Suppress: discard all buffered state, redirect.
                nSuppressedOps += exec_ops;
                ++nSuppressedBlocks;
                curBlock = op.target0;
                BSISA_ASSERT(bsa.blocks[curBlock].func == frame.func);
                return true;
            }
            break;
          }
          case Opcode::Jmp:
          case Opcode::Trap:
          case Opcode::IJmp:
          case Opcode::Call:
          case Opcode::Ret:
          case Opcode::Halt: {
            // Terminator reached: the block commits.
            frame.regs.swap(shadow);
            for (const auto &[addr, value] : stores)
                mem.write(addr, value);
            nCommittedOps += exec_ops;
            ++nCommittedBlocks;

            switch (op.op) {
              case Opcode::Call:
                call(op.callee, op.target0);
                curBlock = fetchHead(op.callee, 0);
                break;
              case Opcode::Ret: {
                const BlockId ret_to = ret();
                curBlock = fetchHead(top().func, ret_to);
                break;
              }
              case Opcode::Halt:
                isHalted = true;
                break;
              default:  // Jmp, Trap, IJmp
                curBlock = fetchHead(frame.func, successor(op, s1));
                break;
            }
            return true;
          }
          default:
            panic("unhandled opcode ", opcodeName(op.op),
                  " in atomic block");
        }
    }
    panic("atomic block fell off the end without a terminator");
}

void
BsaInterp::run()
{
    while (step()) {
    }
}

} // namespace bsisa
