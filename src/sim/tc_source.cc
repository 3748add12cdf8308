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
    const Module &module, const ConvLayout &layout,
    const MachineConfig &config, const TraceCacheConfig &tcConfig,
    const ExecTrace &trace, const DecodedProgram &decoded)
    : translation{module, layout, decoded, trace},
      walker(translation, config), cache(tcConfig)
{
}

void
TraceCacheFetchSource::fillWith(const TraceEvent &ev)
{
    const unsigned block_ops =
        translation.decoded.unit(ev.func, ev.block).opCount;

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
    const ExecTrace &trace = translation.trace;
    const ConvLayout &layout = translation.layout;
    const DecodedProgram &decoded = translation.decoded;
    if (walker.pos >= trace.eventCount)
        return false;

    const TraceEvent &head = trace.events[walker.pos];
    const std::uint64_t start = blockToken(head.func, head.block);

    // Gather direction predictions along the upcoming path (the trace
    // cache needs multiple predictions per cycle; this is one of its
    // acknowledged hardware costs).
    predictedDirs.clear();
    const bool perfect = walker.perfectPrediction();
    const TwoLevelPredictor &predictor = walker.directionPredictor();
    std::uint64_t spec_hist =
        predictor.speculativeHistory(layout.addrOf(head.func,
                                                   head.block));
    const std::size_t window =
        std::min(lookahead, trace.eventCount - walker.pos);
    for (std::size_t i = 0;
         i < window &&
         predictedDirs.size() + 1 < cache.config().maxBlocks * 2;
         ++i) {
        const TraceEvent &ev = trace.events[walker.pos + i];
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

    unit.redirect = walker.pendingRedirect;

    // Commit planned blocks while they match the actual stream, each
    // predicted by the conventional walker.  A wrong direction
    // prediction truncates the unit at the offending trap (earlier
    // blocks commit; the rest of the trace is squashed); calls,
    // returns, indirect jumps and halt end it.  The committed events'
    // address spans are adjacent in the trace pool (ExecTrace
    // invariant), so the unit's addresses are one zero-copy slice
    // starting at the head's span.
    unit.memAddrs = trace.memAddrs + head.memBegin;
    emitOps.clear();
    std::size_t committed = 0;
    std::size_t trap_idx = 0;  // index into predictedDirs
    while (committed < planned && walker.pos < trace.eventCount) {
        const TraceEvent &ev = trace.events[walker.pos];
        if (tc && tc->blocks[committed] != blockToken(ev.func,
                                                      ev.block)) {
            // Should not happen: divergence is caught at the trap
            // below.  Defensive: leave the event unconsumed and stop.
            break;
        }
        const std::size_t at = walker.pos++;
        const auto op_base = static_cast<unsigned>(emitOps.size());
        const DecodedUnit &bdu = decoded.unit(ev.func, ev.block);
        const DecodedOp *bops = decoded.ops(bdu);
        emitOps.insert(emitOps.end(), bops, bops + bdu.opCount);
        ++committed;
        fillWith(ev);

        // Validate a trap with the SAME prediction the trace lookup
        // consumed so the fetch decision and its validation cannot
        // disagree.
        std::optional<bool> dir;
        if (ev.exit == ExitKind::Trap) {
            if (trap_idx < predictedDirs.size())
                dir = predictedDirs[trap_idx];
            ++trap_idx;
        }
        walker.predictSuccessor(at, dir, op_base);
        if (walker.pendingRedirect.mispredicted ||
            (ev.exit != ExitKind::Trap && ev.exit != ExitKind::Jump))
            break;
    }

    BSISA_ASSERT(!emitOps.empty());
    unit.memCount = trace.memOffset(walker.pos) - head.memBegin;
    unit.pc = layout.addrOf(head.func, head.block);
    unit.bytes = static_cast<std::uint32_t>(emitOps.size() * opBytes);
    unit.skipIcache = tc != nullptr;
    unit.ops = emitOps.data();
    unit.opCount = static_cast<std::uint32_t>(emitOps.size());
    return true;
}

} // namespace bsisa
