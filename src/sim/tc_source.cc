/**
 * @file
 * Trace-cache fetch source implementation.
 */

#include "sim/tc_source.hh"

#include <algorithm>

#include "support/logging.hh"

namespace bsisa
{

TraceCacheFetchSource::TraceCacheFetchSource(
    const Module &mod, const ConvLayout &lay,
    const MachineConfig &config, const TraceCacheConfig &tcConfig,
    const ExecTrace &execTrace, const DecodedProgram &decodedProgram)
    : module(mod), layout(lay), decoded(decodedProgram),
      trace(execTrace), perfect(config.perfectPrediction),
      predictor(config.predictor), cache(tcConfig)
{
}

bool
TraceCacheFetchSource::predictTrap(const TraceEvent &ev)
{
    const std::uint64_t pc = layout.addrOf(ev.func, ev.block);
    if (perfect)
        return ev.taken;
    ++counts.nPredictions;
    const bool predicted = predictor.predictTaken(pc);
    predictor.update(pc, ev.taken);
    return predicted;
}

void
TraceCacheFetchSource::handleExit(const TraceEvent &ev)
{
    const Function &fn = module.functions[ev.func];
    const Operation &term = fn.blocks[ev.block].terminator();
    const std::uint64_t pc = layout.addrOf(ev.func, ev.block);
    switch (ev.exit) {
      case ExitKind::Call:
        predictor.returnStack().push(blockToken(ev.func, term.target0));
        break;
      case ExitKind::Ret: {
        if (perfect)
            break;
        ++counts.nPredictions;
        const std::uint64_t actual = blockToken(ev.nextFunc, ev.nextBlock);
        if (predictor.returnStack().pop() != actual) {
            ++counts.nTrapMiss;
            pendingRedirect.mispredicted = true;
        }
        break;
      }
      case ExitKind::IJump: {
        if (perfect)
            break;
        ++counts.nPredictions;
        const std::uint64_t actual = blockToken(ev.nextFunc, ev.nextBlock);
        const std::uint64_t predicted = predictor.predictTarget(pc);
        predictor.updateTarget(pc, actual);
        if (predicted != actual) {
            ++counts.nTrapMiss;
            pendingRedirect.mispredicted = true;
        }
        break;
      }
      default:
        break;
    }
}

void
TraceCacheFetchSource::fillWith(const TraceEvent &ev)
{
    const unsigned block_ops =
        decoded.unit(ev.func, ev.block).opCount;

    if (fill.valid &&
        (fill.blocks.size() >= cache.config().maxBlocks ||
         fill.ops + block_ops > cache.config().maxOps)) {
        flushFill();
    }
    if (!fill.valid) {
        fill.valid = true;
        fill.start = blockToken(ev.func, ev.block);
        fill.blocks.clear();
        fill.dirs.clear();
        fill.ops = 0;
    }
    fill.blocks.push_back(blockToken(ev.func, ev.block));
    fill.ops += block_ops;

    switch (ev.exit) {
      case ExitKind::Trap:
        // Every trap direction (including the exit's) is part of the
        // trace identity, as in the original trace cache: a trace is
        // only fetched when the predictor agrees with its whole path.
        fill.dirs.push_back(ev.taken);
        break;
      case ExitKind::Jump:
        break;  // unconditional: no identity bit
      default:
        // Calls, returns, indirect jumps, and halt end the trace.
        flushFill();
        return;
    }
}

void
TraceCacheFetchSource::flushFill()
{
    if (fill.valid && fill.blocks.size() >= 2)
        cache.install(fill);
    fill = Trace{};
}

bool
TraceCacheFetchSource::next(TimingUnit &unit)
{
    if (pos >= trace.eventCount)
        return false;

    const TraceEvent &head = trace.events[pos];
    const std::uint64_t start = blockToken(head.func, head.block);

    // Gather direction predictions along the upcoming path (the trace
    // cache needs multiple predictions per cycle; this is one of its
    // acknowledged hardware costs).
    predictedDirs.clear();
    std::uint64_t spec_hist =
        predictor.speculativeHistory(layout.addrOf(head.func,
                                                   head.block));
    const std::size_t window =
        std::min(lookahead, trace.eventCount - pos);
    for (std::size_t i = 0;
         i < window &&
         predictedDirs.size() + 1 < cache.config().maxBlocks * 2;
         ++i) {
        const TraceEvent &ev = trace.events[pos + i];
        if (ev.exit == ExitKind::Trap) {
            const std::uint64_t pc = layout.addrOf(ev.func, ev.block);
            bool dir;
            if (perfect) {
                dir = ev.taken;
            } else if (predictor.usesGlobalHistory()) {
                // Speculative history chaining keeps deep predictions
                // aligned with the indices update() will train.
                dir = predictor.predictTakenSpec(pc, spec_hist);
            } else {
                dir = predictor.predictTaken(pc);
            }
            predictedDirs.push_back(dir);
        } else if (ev.exit != ExitKind::Jump) {
            break;
        }
    }

    const Trace *tc = cache.lookup(start, predictedDirs);
    const std::size_t planned = tc ? tc->blocks.size() : std::size_t(1);

    unit.redirect = pendingRedirect;
    pendingRedirect = RedirectInfo{};

    // Commit planned blocks while they match the actual stream; a
    // wrong direction prediction truncates the unit at the offending
    // trap (earlier blocks commit; the rest of the trace is squashed).
    // The committed events' address spans are adjacent in the trace
    // pool (ExecTrace invariant), so the unit's addresses are one
    // zero-copy slice starting at the head's span.
    unit.memAddrs = trace.memAddrs + head.memBegin;
    unit.memCount = 0;
    emitOps.clear();
    std::size_t committed = 0;
    std::size_t trap_idx = 0;  // index into predictedDirs
    bool stop = false;
    while (committed < planned && !stop) {
        const TraceEvent &ev = trace.events[pos];
        const Function &fn = module.functions[ev.func];
        const Block &blk = fn.blocks[ev.block];
        if (tc && tc->blocks[committed] != blockToken(ev.func,
                                                      ev.block)) {
            // Should not happen: divergence is caught at the trap
            // below.  Defensive: leave the event unconsumed and stop.
            break;
        }
        ++pos;
        const DecodedUnit &bdu = decoded.unit(ev.func, ev.block);
        const DecodedOp *bops = decoded.ops(bdu);
        emitOps.insert(emitOps.end(), bops, bops + bdu.opCount);
        unit.memCount += ev.memCount;
        ++committed;
        fillWith(ev);

        switch (ev.exit) {
          case ExitKind::Trap: {
            // Use the SAME prediction the trace lookup consumed so the
            // fetch decision and its validation cannot disagree.
            bool predicted;
            if (trap_idx < predictedDirs.size()) {
                predicted = predictedDirs[trap_idx];
                if (!perfect) {
                    ++counts.nPredictions;
                    predictor.update(
                        layout.addrOf(ev.func, ev.block), ev.taken);
                }
            } else {
                predicted = predictTrap(ev);
            }
            ++trap_idx;
            if (predicted != ev.taken) {
                ++counts.nTrapMiss;
                pendingRedirect.mispredicted = true;
                pendingRedirect.resolveOpIdx =
                    static_cast<unsigned>(emitOps.size() - 1);
                const Operation &term = blk.terminator();
                const BlockId wrong =
                    predicted ? term.target0 : term.target1;
                const DecodedUnit &wdu = decoded.unit(ev.func, wrong);
                pendingRedirect.wrongOps = decoded.ops(wdu);
                pendingRedirect.wrongOpCount = wdu.opCount;
                pendingRedirect.wrongPc = layout.addrOf(ev.func, wrong);
                pendingRedirect.wrongBytes =
                    layout.bytesOf(ev.func, wrong);
                stop = true;  // the rest of the trace is wrong-path
            }
            break;
          }
          case ExitKind::Jump:
            break;
          default:
            handleExit(ev);
            if (ev.exit == ExitKind::Ret || ev.exit == ExitKind::IJump)
                pendingRedirect.resolveOpIdx =
                    static_cast<unsigned>(emitOps.size() - 1);
            stop = true;
            break;
        }
        if (pos >= trace.eventCount)
            break;
    }

    BSISA_ASSERT(!emitOps.empty());
    unit.pc = layout.addrOf(head.func, head.block);
    unit.bytes = static_cast<std::uint32_t>(emitOps.size() * opBytes);
    unit.skipIcache = tc != nullptr;
    unit.ops = emitOps.data();
    unit.opCount = static_cast<std::uint32_t>(emitOps.size());
    return true;
}

} // namespace bsisa
