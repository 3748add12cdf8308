/**
 * @file
 * Liveness analysis implementation.
 */

#include "regalloc/liveness.hh"

#include "ir/cfg.hh"

namespace bsisa
{

Liveness
computeLiveness(const Function &func)
{
    Liveness live;
    const std::size_t n = func.blocks.size();
    const std::size_t w = (std::size_t(func.numVirtualRegs) + 63) / 64;
    live.blocks = n;
    live.words = w;
    live.rows.assign(Liveness::numKinds * n * w, 0);

    // Per-block gen (upward-exposed uses) and kill (defs), and the
    // successor lists, flattened: block b's successors are
    // succs[succ_begin[b], succ_begin[b + 1]).
    std::vector<std::uint32_t> succ_begin(n + 1);
    std::vector<BlockId> succs;
    succs.reserve(2 * n);
    for (std::size_t b = 0; b < n; ++b) {
        std::uint64_t *gen = live.row(Liveness::gen, BlockId(b));
        std::uint64_t *kill = live.row(Liveness::kill, BlockId(b));
        for (const Operation &op : func.blocks[b].ops) {
            forEachUse(op, [&](RegNum u) {
                const std::uint64_t bit = 1ULL << (u & 63);
                if (u != regZero && !(kill[u >> 6] & bit))
                    gen[u >> 6] |= bit;
            });
            const RegNum d = opDef(op);
            if (d != invalidId)
                kill[d >> 6] |= 1ULL << (d & 63);
        }
        succ_begin[b] = std::uint32_t(succs.size());
        forEachSuccessor(func, BlockId(b),
                         [&](BlockId s) { succs.push_back(s); });
    }
    succ_begin[n] = std::uint32_t(succs.size());

    // Iterate to the least fixpoint (reverse order converges fast on
    // reducible CFGs):  out = U in[succ],  in = gen | (out & ~kill).
    // Both only grow across iterations.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = n; i-- > 0;) {
            const BlockId b = BlockId(i);
            std::uint64_t *out = live.row(Liveness::out, b);
            for (std::uint32_t k = succ_begin[b]; k < succ_begin[b + 1]; ++k) {
                const std::uint64_t *in_s =
                    live.row(Liveness::in, succs[k]);
                for (std::size_t j = 0; j < w; ++j)
                    out[j] |= in_s[j];
            }
            const std::uint64_t *gen = live.row(Liveness::gen, b);
            const std::uint64_t *kill = live.row(Liveness::kill, b);
            std::uint64_t *in = live.row(Liveness::in, b);
            for (std::size_t j = 0; j < w; ++j) {
                const std::uint64_t v = gen[j] | (out[j] & ~kill[j]);
                changed |= v != in[j];
                in[j] = v;
            }
        }
    }
    return live;
}

} // namespace bsisa
