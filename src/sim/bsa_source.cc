/**
 * @file
 * Block-structured fetch walk implementation.
 */

#include "sim/bsa_source.hh"

#include <bit>

#include "support/logging.hh"

namespace bsisa
{

namespace
{

/** Index of @p block within @p trie's emitted list. */
unsigned
variantIndex(const HeadTrie &trie, AtomicBlockId block)
{
    for (unsigned v = 0; v < trie.emitted.size(); ++v)
        if (trie.nodes[trie.emitted[v]].block == block)
            return v;
    panic("block is not a variant of this trie");
}

} // namespace

// ----------------------------------------------------- BsaTranslation

BsaTranslation::BsaTranslation(const BsaModule &bsaModule,
                               const DecodedProgram &decodedProgram,
                               const ExecTrace &execTrace)
    : bsa(bsaModule), decoded(decodedProgram), trace(execTrace),
      memo(std::min(execTrace.eventCount,
                    fetchCaptureWindow + lookahead))
{
    blockAux.resize(bsa.blocks.size());
    for (std::size_t b = 0; b < bsa.blocks.size(); ++b) {
        const AtomicBlock &blk = bsa.blocks[b];
        const Operation &term = blk.terminator();
        BlockAux &aux = blockAux[b];
        switch (term.op) {
          case Opcode::Trap:
            aux.takenTrie = bsa.findTrie(blk.func, term.target0);
            aux.notTakenTrie = bsa.findTrie(blk.func, term.target1);
            aux.notTakenSlotBase =
                aux.takenTrie ? static_cast<unsigned>(
                                    aux.takenTrie->emitted.size())
                              : 0;
            break;
          case Opcode::Jmp:
            // An intra-function jump: the successor head is
            // term.target0 in the block's own function.
            aux.takenTrie = bsa.findTrie(blk.func, term.target0);
            break;
          case Opcode::Call:
            aux.takenTrie = bsa.findTrie(term.callee, 0);
            break;
          default:
            break;  // Ret/IJmp targets are dynamic; Halt has none
        }
    }
}

void
BsaTranslation::startWindow(std::size_t begin)
{
    if (begin == base)
        return;
    // The previous window's walkers stopped at most lookahead events
    // past its end, so only the entries from here on can be touched
    // again: keep them, clear the rest.
    BSISA_ASSERT(begin > base && begin <= base + memo.size());
    const std::size_t keep = base + memo.size() - begin;
    std::copy(memo.end() - std::ptrdiff_t(keep), memo.end(),
              memo.begin());
    std::fill(memo.begin() + std::ptrdiff_t(keep), memo.end(),
              PosMemo{});
    base = begin;
}

const BsaTranslation::PosMemo &
BsaTranslation::memoAt(std::size_t pos)
{
    ++memoLookups;
    BSISA_ASSERT(pos - base < memo.size(), "outside the memo window");
    PosMemo &pm = memo[pos - base];
    if (pm.computed)
        return pm;
    ++memoComputes;

    const TraceEvent *evs = trace.events + pos;
    pm.trie = &bsa.trie(evs[0].func, evs[0].block);
    const int node = maximalVariant(pos);
    pm.smax = pm.trie->nodes[node].block;
    pm.varIdx = variantIndex(*pm.trie, pm.smax);
    pm.compatMax =
        compatibleAt(pos, pm.smax, evs[0].func, evs[0].block);

    // The maximal commit's event consumption and address span: events
    // slice the trace pool in stream order (ExecTrace invariant), so
    // the whole unit is a single zero-copy span into the pool.
    const std::size_t consume = std::min<std::size_t>(
        bsa.blocks[pm.smax].bbs.size(), availAt(pos));
    pm.consume = static_cast<std::uint8_t>(consume);
    pm.memCount = trace.memOffset(pos + consume) - evs[0].memBegin;
    pm.computed = true;
    return pm;
}

int
BsaTranslation::maximalVariant(std::size_t pos) const
{
    const std::size_t size = availAt(pos);
    const TraceEvent *evs = trace.events + pos;
    const HeadTrie &trie = bsa.trie(evs[0].func, evs[0].block);
    const Function &fn = bsa.src->functions[evs[0].func];
    int node = 0;
    unsigned i = 0;

    for (;;) {
        const TrieNode &tn = trie.nodes[node];
        const Operation &term = fn.blocks[tn.bb].terminator();
        int child = -1;
        if (term.op == Opcode::Jmp) {
            child = tn.childThru;
        } else if (term.op == Opcode::Trap && i < size) {
            child = evs[i].taken ? tn.childTaken : tn.childNotTaken;
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
            return stop;
        }
        node = child;
        ++i;
    }
}

bool
BsaTranslation::compatibleAt(std::size_t pos, AtomicBlockId block,
                             FuncId func, BlockId head) const
{
    if (block == invalidId)
        return false;
    const AtomicBlock &blk = bsa.blocks[block];
    if (blk.func != func || blk.bbs.front() != head)
        return false;
    if (blk.bbs.size() > availAt(pos))
        return false;
    // Each event is its predecessor's successor (ExecTrace), so
    // matching the blocks matches the edges between them too.
    const TraceEvent *evs = trace.events + pos;
    for (std::size_t i = 0; i < blk.bbs.size(); ++i)
        if (evs[i].func != func || evs[i].block != blk.bbs[i])
            return false;
    return true;
}

void
BsaTranslation::buildUnit(const FetchOutcomeRecord &rec,
                          TimingUnit &unit) const
{
    const AtomicBlock &blk = bsa.blocks[rec.committed];
    const DecodedUnit &du = decoded.unit(rec.committed);
    unit.pc = blk.addr;
    unit.bytes = du.sizeBytes;
    unit.ops = decoded.ops(du);
    unit.opCount = du.opCount;
    unit.memAddrs = trace.memAddrs + rec.memOffset;
    unit.memCount = rec.memCount;
    unit.redirect = RedirectInfo{};
}

// ----------------------------------------------------- BsaFetchWalker

BsaFetchWalker::BsaFetchWalker(BsaTranslation &translation,
                               const MachineConfig &config)
    : tr(&translation), perfect(config.perfectPrediction),
      predictor(config.predictor)
{
}

void
BsaFetchWalker::predictSuccessor(AtomicBlockId committed,
                                 const TraceEvent &lastEvent)
{
    const BsaModule &bsa = tr->bsa;
    const DecodedProgram &decoded = tr->decoded;
    const AtomicBlock &blk = bsa.blocks[committed];
    const DecodedUnit &du = decoded.unit(committed);
    pendingRedirect = RedirectInfo{};
    predictedNext = invalidId;

    const std::size_t size = tr->availAt(pos);
    if (lastEvent.exit == ExitKind::Halt || size == 0)
        return;

    // The next unit's head is the successor of lastEvent.
    const TraceEvent *evs = tr->trace.events + pos;
    const FuncId next_func = evs[0].func;
    const BlockId next_head = evs[0].block;

    const BsaTranslation::PosMemo &pm = tr->memoAt(pos);
    const AtomicBlockId s_max = pm.smax;

    if (perfect) {
        predictedNext = s_max;
        return;
    }

    const std::uint64_t pc = blk.addr;
    const Operation &term = blk.terminator();
    const BsaTranslation::BlockAux &aux = tr->blockAux[committed];

    // Canonical successor slot layout: taken-side variants first.
    auto slot_of = [&](bool taken_side, unsigned variant) -> unsigned {
        unsigned slot = variant;
        if (term.op == Opcode::Trap && !taken_side)
            slot += aux.notTakenSlotBase;
        return slot & (btbSuccessorSlots - 1);
    };

    // ----------------------------------------------------- predict
    // One combined PHT+BTB probe serves the whole predict section
    // (the capture pre-pass runs this per fetch step, so halving the
    // table traffic matters); the view stays valid until install()
    // below — the return stack is a separate table.
    AtomicBlockId candidate = invalidId;
    const BlockPredictor::Probe pr = predictor.probe(pc);
    const BlockPredictor::Prediction &pred = pr.pred;
    const HeadTrie *trie = nullptr;
    switch (term.op) {
      case Opcode::Trap:
        trie = pred.trapTaken ? aux.takenTrie : aux.notTakenTrie;
        break;
      case Opcode::Jmp:
      case Opcode::Call:
        trie = aux.takenTrie;
        break;
      case Opcode::Ret: {
        // The return address stack provides the head.
        const std::uint64_t token = predictor.returnStack().pop();
        if (token != ~0ull) {
            trie = bsa.findTrie(
                static_cast<FuncId>(token >> 32),
                static_cast<BlockId>(token & 0xffffffff));
        }
        break;
      }
      case Opcode::IJmp:
        if (pr.btb.lastSucc != ~0ull)
            candidate = static_cast<AtomicBlockId>(pr.btb.lastSucc);
        break;
      default:
        break;
    }
    if (trie) {
        const unsigned nvar = static_cast<unsigned>(trie->emitted.size());
        const unsigned variant = std::min(pred.variantBits, nvar - 1);
        const AtomicBlockId structural =
            trie->nodes[trie->emitted[variant]].block;
        if (pr.btb.successor(slot_of(pred.trapTaken, variant)) ==
            structural)
            candidate = structural;
        else if (pr.btb.lastSucc != ~0ull)
            candidate = static_cast<AtomicBlockId>(pr.btb.lastSucc);
    }
    if (term.op == Opcode::Call)
        predictor.returnStack().push(blockToken(blk.func, term.target0));

    // ------------------------------------------------------- train
    const unsigned actual_variant = pm.varIdx;
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

    if (candidate != invalidId) {
        const bool compat =
            candidate == s_max
                ? pm.compatMax
                : tr->compatibleAt(pos, candidate, next_func,
                                   next_head);
        if (compat) {
            predictedNext = candidate;  // commits (possibly shallow)
            return;
        }
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
            const bool actual_dir = evs[i].taken;
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
    // The cascade-final compatible block; captureStep falls back to
    // the maximal variant if the stream was truncated underneath us.
    predictedNext = wrong_id;
}

void
BsaFetchWalker::captureStep(FetchOutcomeStream &out)
{
    const BsaTranslation::PosMemo &pm = tr->memoAt(pos);
    const TraceEvent *evs = tr->trace.events + pos;

    // A predicted maximal commit needs no re-check: either way the
    // commit is s_max.  Only shallower (or wrong-head) predictions
    // pay for a stream-compatibility walk.
    AtomicBlockId committed = pm.smax;
    if (predictedNext != invalidId && predictedNext != pm.smax &&
        tr->compatibleAt(pos, predictedNext, evs[0].func,
                         evs[0].block)) {
        committed = predictedNext;
    }

    FetchOutcomeRecord rec;
    rec.pos = pos;
    rec.committed = committed;

    // Record the block's memory span: one slice of the trace pool
    // starting at the head event (ExecTrace span adjacency).
    std::size_t consume = pm.consume;
    rec.memOffset = evs[0].memBegin;
    rec.memCount = pm.memCount;
    if (committed != pm.smax) {
        consume = std::min<std::size_t>(
            tr->bsa.blocks[committed].bbs.size(), tr->availAt(pos));
        rec.memCount = tr->trace.memOffset(pos + consume) - rec.memOffset;
    }

    // The redirect recorded by the PREVIOUS step's prediction applies
    // to this unit's fetch; store it sparsely against this step.
    if (pendingRedirect.mispredicted) {
        out.redirectStep.push_back(
            static_cast<std::uint32_t>(out.steps.size()));
        out.redirects.push_back(pendingRedirect);
    }
    out.steps.push_back(rec);
    ++nFetchSteps;

    const TraceEvent &last = evs[consume - 1];
    pos += consume;
    predictSuccessor(committed, last);
}

} // namespace bsisa
