/**
 * @file
 * Block-structured fetch source implementation.
 */

#include "sim/bsa_source.hh"

#include <bit>

#include "support/logging.hh"

namespace bsisa
{

BsaFetchSource::BsaFetchSource(const BsaModule &bsa_mod,
                               const MachineConfig &config,
                               const ExecTrace &execTrace,
                               const DecodedProgram &decodedProgram)
    : bsa(bsa_mod), module(*bsa_mod.src), decoded(decodedProgram),
      trace(execTrace), perfect(config.perfectPrediction),
      predictor(config.predictor)
{
}

int
BsaFetchSource::maximalVariant(FuncId func, BlockId head,
                               unsigned &eventsUsed) const
{
    const HeadTrie &trie = bsa.trie(func, head);
    const Function &fn = module.functions[func];
    const std::size_t size = windowSize();
    int node = 0;
    unsigned i = 0;
    BSISA_ASSERT(size > 0 && event(0).block == head &&
                 event(0).func == func);

    for (;;) {
        const TrieNode &tn = trie.nodes[node];
        const Operation &term = fn.blocks[tn.bb].terminator();
        int child = -1;
        if (term.op == Opcode::Jmp) {
            child = tn.childThru;
        } else if (term.op == Opcode::Trap && i < size) {
            child = event(i).taken ? tn.childTaken : tn.childNotTaken;
        }
        if (child == -1 || i + 1 >= size) {
            // Stop here; if the walk was cut short by a truncated
            // event stream the node may be pass-through, so fall to
            // its default emitted descendant.
            int stop = node;
            while (trie.nodes[stop].block == invalidId) {
                const TrieNode &cur = trie.nodes[stop];
                stop = cur.childThru != -1        ? cur.childThru
                       : cur.childNotTaken != -1 ? cur.childNotTaken
                                                 : cur.childTaken;
                BSISA_ASSERT(stop != -1);
            }
            const AtomicBlock &blk = bsa.blocks[trie.nodes[stop].block];
            eventsUsed = static_cast<unsigned>(
                std::min<std::size_t>(blk.bbs.size(), size));
            return stop;
        }
        node = child;
        ++i;
    }
}

bool
BsaFetchSource::compatible(AtomicBlockId block, FuncId func,
                           BlockId head) const
{
    if (block == invalidId)
        return false;
    const AtomicBlock &blk = bsa.blocks[block];
    if (blk.func != func || blk.bbs.front() != head)
        return false;
    if (blk.bbs.size() > windowSize())
        return false;
    for (std::size_t i = 0; i < blk.bbs.size(); ++i) {
        const TraceEvent &ev = event(i);
        if (ev.func != func || ev.block != blk.bbs[i])
            return false;
        if (i + 1 < blk.bbs.size() &&
            (ev.nextFunc != func || ev.nextBlock != blk.bbs[i + 1])) {
            return false;
        }
    }
    return true;
}

unsigned
BsaFetchSource::variantIndex(const HeadTrie &trie, AtomicBlockId block)
{
    for (unsigned v = 0; v < trie.emitted.size(); ++v)
        if (trie.nodes[trie.emitted[v]].block == block)
            return v;
    panic("block is not a variant of this trie");
}

void
BsaFetchSource::predictSuccessor(AtomicBlockId committed,
                                 const TraceEvent &lastEvent)
{
    const AtomicBlock &blk = bsa.blocks[committed];
    const DecodedUnit &du = decoded.unit(committed);
    pendingRedirect = RedirectInfo{};
    predictedNext = invalidId;

    const std::size_t size = windowSize();
    if (lastEvent.exit == ExitKind::Halt || size == 0)
        return;

    const FuncId next_func = lastEvent.nextFunc;
    const BlockId next_head = lastEvent.nextBlock;
    BSISA_ASSERT(event(0).func == next_func &&
                 event(0).block == next_head);

    const HeadTrie &next_trie = bsa.trie(next_func, next_head);
    unsigned used = 0;
    const int max_node = maximalVariant(next_func, next_head, used);
    const AtomicBlockId s_max = next_trie.nodes[max_node].block;

    if (perfect) {
        predictedNext = s_max;
        return;
    }

    const std::uint64_t pc = blk.addr;
    const Operation &term = blk.terminator();

    // Canonical successor slot layout: taken-side variants first.
    auto side_variants = [&](BlockId target) -> const HeadTrie * {
        return bsa.findTrie(blk.func, target);
    };
    auto slot_of = [&](bool taken_side, unsigned variant) -> unsigned {
        unsigned slot = variant;
        if (term.op == Opcode::Trap && !taken_side) {
            const HeadTrie *t0 = side_variants(term.target0);
            slot += t0 ? static_cast<unsigned>(t0->emitted.size()) : 0;
        }
        return slot & (btbSuccessorSlots - 1);
    };

    // ----------------------------------------------------- predict
    // One combined const probe (PHT + BTB view) serves the whole
    // predict phase; it stays valid until install() below.
    AtomicBlockId candidate = invalidId;
    const BlockPredictor::Probe pr = predictor.probe(pc);
    const BlockPredictor::Prediction &pred = pr.pred;
    switch (term.op) {
      case Opcode::Trap: {
        const BlockId target =
            pred.trapTaken ? term.target0 : term.target1;
        if (const HeadTrie *trie = side_variants(target)) {
            const unsigned nvar =
                static_cast<unsigned>(trie->emitted.size());
            const unsigned variant = std::min(pred.variantBits,
                                              nvar - 1);
            const AtomicBlockId structural =
                trie->nodes[trie->emitted[variant]].block;
            const unsigned slot = slot_of(pred.trapTaken, variant);
            if (pr.btb.successor(slot) == structural)
                candidate = structural;
            else if (pr.btb.lastSucc != ~0ull)
                candidate =
                    static_cast<AtomicBlockId>(pr.btb.lastSucc);
        }
        break;
      }
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret: {
        FuncId hf = next_func;
        BlockId hb = next_head;
        if (term.op == Opcode::Ret) {
            // The return address stack provides the head.
            const std::uint64_t token = predictor.popReturn();
            if (token == ~0ull)
                break;
            hf = static_cast<FuncId>(token >> 32);
            hb = static_cast<BlockId>(token & 0xffffffff);
        } else if (term.op == Opcode::Call) {
            hf = term.callee;
            hb = 0;
        } else {
            hb = term.target0;
        }
        if (const HeadTrie *trie = bsa.findTrie(hf, hb)) {
            const unsigned nvar =
                static_cast<unsigned>(trie->emitted.size());
            const unsigned variant = std::min(pred.variantBits,
                                              nvar - 1);
            const AtomicBlockId structural =
                trie->nodes[trie->emitted[variant]].block;
            const unsigned slot = variant & (btbSuccessorSlots - 1);
            if (pr.btb.successor(slot) == structural)
                candidate = structural;
            else if (pr.btb.lastSucc != ~0ull)
                candidate =
                    static_cast<AtomicBlockId>(pr.btb.lastSucc);
        }
        break;
      }
      case Opcode::IJmp: {
        if (pr.btb.lastSucc != ~0ull)
            candidate = static_cast<AtomicBlockId>(pr.btb.lastSucc);
        break;
      }
      default:
        break;
    }
    if (term.op == Opcode::Call)
        predictor.pushReturn(blockToken(blk.func, term.target0));

    // ------------------------------------------------------- train
    const unsigned actual_variant = variantIndex(next_trie, s_max);
    BlockPredictor::Prediction actual;
    actual.trapTaken =
        term.op == Opcode::Trap ? lastEvent.taken : false;
    actual.variantBits = actual_variant;
    unsigned succ_index = actual_variant;
    if (term.op == Opcode::Trap)
        succ_index = slot_of(lastEvent.taken, actual_variant);
    predictor.update(pc, actual, blk.succBits, succ_index);
    predictor.install(pc, succ_index & (btbSuccessorSlots - 1), s_max);

    // ---------------------------------------------------- classify
    bool counted = blk.succBits > 0 || term.op == Opcode::IJmp;
    if (counted)
        ++nPredictions;

    if (candidate != invalidId &&
        compatible(candidate, next_func, next_head)) {
        predictedNext = candidate;  // commits (possibly shallow)
        return;
    }

    // Misprediction.
    if (!counted)
        ++nPredictions;  // cold-BTB misses on single-successor blocks
    pendingRedirect.mispredicted = true;
    const bool same_head =
        candidate != invalidId &&
        bsa.blocks[candidate].func == next_func &&
        bsa.blocks[candidate].bbs.front() == next_head;

    if (!same_head) {
        // Wrong head (trap direction / indirect target / cold BTB):
        // resolved by this block's terminator.
        ++nTrapMiss;
        pendingRedirect.resolveInWrongBlock = false;
        pendingRedirect.resolveOpIdx = du.opCount - 1;
        if (candidate != invalidId) {
            const AtomicBlock &wrong = bsa.blocks[candidate];
            const DecodedUnit &wdu = decoded.unit(candidate);
            pendingRedirect.wrongOps = decoded.ops(wdu);
            pendingRedirect.wrongOpCount = wdu.opCount;
            pendingRedirect.wrongPc = wrong.addr;
            pendingRedirect.wrongBytes = wdu.sizeBytes;
        }
        predictedNext = s_max;
        return;
    }

    // Same head, wrong variant: a fault inside the wrong block fires.
    ++nFaultMiss;
    pendingRedirect.isFault = true;
    pendingRedirect.resolveInWrongBlock = true;

    // Walk the fault-target cascade until a compatible block.
    AtomicBlockId wrong_id = candidate;
    unsigned hops = 0;
    for (;;) {
        const DecodedUnit &wdu = decoded.unit(wrong_id);
        const DecodedFault *wfaults = decoded.faults(wdu);
        // Find the first divergent merge edge by comparing the
        // decoded direction mask with the actual stream; thru edges
        // cannot diverge, so trapMask walks only the fault edges.
        bool diverged = false;
        unsigned resolve_op = wdu.opCount - 1;
        AtomicBlockId fault_target = invalidId;
        unsigned dir_idx = 0;
        for (std::uint64_t m = wdu.trapMask; m;
             m &= m - 1, ++dir_idx) {
            const unsigned i =
                static_cast<unsigned>(std::countr_zero(m));
            if (i >= size)
                break;  // truncated stream at the program tail
            const bool actual_dir = event(i).taken;
            const bool merged_dir = (wdu.dirMask >> dir_idx) & 1;
            if (actual_dir != merged_dir) {
                diverged = true;
                resolve_op = wfaults[dir_idx].opIdx;
                fault_target = wfaults[dir_idx].target;
                break;
            }
        }
        if (!diverged) {
            if (hops == 0) {
                // No divergent fault exists (possible only when the
                // event stream is truncated at the program tail):
                // resolve at the previous terminator instead.
                pendingRedirect.resolveInWrongBlock = false;
                pendingRedirect.resolveOpIdx = du.opCount - 1;
            }
            // The cascade landed on a compatible block.
            break;
        }
        if (hops == 0) {
            // The first wrong block is the one the pipeline issues.
            pendingRedirect.resolveOpIdx = resolve_op;
            pendingRedirect.wrongOps = decoded.ops(wdu);
            pendingRedirect.wrongOpCount = wdu.opCount;
            pendingRedirect.wrongPc = bsa.blocks[wrong_id].addr;
            pendingRedirect.wrongBytes = wdu.sizeBytes;
        }
        ++hops;
        ++nCascadeHops;
        wrong_id = fault_target;
        if (hops > 8) {
            wrong_id = s_max;
            break;
        }
    }
    pendingRedirect.extraHops = hops > 0 ? hops - 1 : 0;
    // The cascade-final compatible block; next() falls back to the
    // maximal variant if the stream was truncated underneath us.
    predictedNext = wrong_id;
}

bool
BsaFetchSource::next(TimingUnit &unit)
{
    if (pos >= trace.eventCount)
        return false;

    const FuncId func = event(0).func;
    const BlockId head = event(0).block;

    AtomicBlockId committed;
    if (predictedNext != invalidId &&
        compatible(predictedNext, func, head)) {
        committed = predictedNext;
    } else {
        unsigned used = 0;
        const int node = maximalVariant(func, head, used);
        committed = bsa.trie(func, head).nodes[node].block;
    }

    const AtomicBlock &blk = bsa.blocks[committed];
    const DecodedUnit &du = decoded.unit(committed);
    unit.pc = blk.addr;
    unit.bytes = du.sizeBytes;
    unit.ops = decoded.ops(du);
    unit.opCount = du.opCount;
    unit.redirect = pendingRedirect;

    // Consume the block's events; their address spans are adjacent in
    // the trace pool (ExecTrace invariant), so the block's addresses
    // are one zero-copy slice.
    const std::size_t consume =
        std::min<std::size_t>(blk.bbs.size(), windowSize());
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < consume; ++i)
        total += event(i).memCount;
    unit.memAddrs = trace.memAddrs + event(0).memBegin;
    unit.memCount = total;

    const TraceEvent &last = event(consume - 1);
    pos += consume;
    predictSuccessor(committed, last);
    return true;
}

} // namespace bsisa
