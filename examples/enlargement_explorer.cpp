/**
 * @file
 * Enlargement explorer: shows what the block enlargement optimization
 * does to a function, reproducing the paper's figure-1 walk-through.
 *
 * Compiles a small function with an if/else diamond, prints its
 * conventional control-flow graph in the IR text form, runs
 * enlargement, and dumps every atomic block with its constituent
 * basic blocks, fault operations (with polarity and targets), and
 * successor metadata.
 */

#include <iostream>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "frontend/compile.hh"
#include "ir/textform.hh"

using namespace bsisa;

namespace
{

const char *kProgram = R"(
    var d[8];
    fn main() {
        var x = d[0];        // block A: load, then branch
        var y = 0;
        if (x & 1) {         //   taken -> block B's role
            y = x * 3 + 1;   // block C
        } else {
            y = x + 7;       // block D
        }
        d[1] = y;            // block E: join
        return y;
    }
)";

void
dumpAtomicBlock(const BsaModule &bsa, const AtomicBlock &blk)
{
    (void)bsa;
    std::cout << "  atomic block AB" << blk.id << " @0x" << std::hex
              << blk.addr << std::dec << "  (" << blk.ops.size()
              << " ops, " << blk.numFaults << " faults, succBits "
              << unsigned(blk.succBits) << ")\n";
    std::cout << "    merged basic blocks:";
    for (BlockId b : blk.bbs)
        std::cout << " B" << b;
    if (!blk.dirs.empty()) {
        std::cout << "   (directions:";
        for (bool d : blk.dirs)
            std::cout << (d ? " taken" : " not-taken");
        std::cout << ")";
    }
    std::cout << "\n";
    for (const Operation &op : blk.ops) {
        std::cout << "      " << op.toString();
        if (op.op == Opcode::Fault) {
            std::cout << (op.imm ? "   ; fires when cond is FALSE "
                                   "(complemented, merged taken-side)"
                                 : "   ; fires when cond is TRUE "
                                   "(merged fall-through)");
            std::cout << " -> redirects to AB" << op.target0;
        }
        std::cout << "\n";
    }
}

} // namespace

int
main()
{
    const Module module = compileBlockCOrDie(kProgram);

    std::cout << "==== conventional control-flow graph ====\n";
    std::cout << moduleToText(module);

    EnlargeStats stats;
    BsaModule bsa = enlargeModule(module, EnlargeConfig{}, nullptr,
                                  &stats);
    layoutBsaModule(bsa);

    std::cout << "\n==== after block enlargement ====\n";
    std::cout << "atomic blocks: " << stats.atomicBlocks
              << ", trap->fault conversions: " << stats.mergedEdges
              << ", jumps deleted: " << stats.thruMerges
              << ", code expansion: " << stats.expansion() << "x\n\n";

    for (const auto &bf : bsa.funcs) {
        for (const auto &[head, trie] : bf.tries) {
            std::cout << "head B" << head << " of f" << bf.id << ": "
                      << trie.emitted.size() << " variant(s), "
                      << unsigned(trie.variantBits)
                      << " selection bit(s)\n";
            for (int n : trie.emitted)
                dumpAtomicBlock(bsa, bsa.blocks[trie.nodes[n].block]);
            std::cout << "\n";
        }
    }

    std::cout << "Note how the if/else became TWO enlarged blocks (the "
                 "paper's BC and BD):\neach contains the condition "
                 "computation, ONE arm, and a fault whose target\nis "
                 "the sibling variant, so a wrong fetch repairs itself "
                 "at run time.\n";
    return 0;
}
