/**
 * @file
 * Conventional fetch walk implementation.
 */

#include "sim/conv_source.hh"

namespace bsisa
{

void
ConvFetchWalker::predictSuccessor(std::size_t i,
                                  std::optional<bool> trapDir,
                                  unsigned opBase)
{
    pendingRedirect = RedirectInfo{};
    if (perfect)
        return;

    const ExecTrace &trace = tr->trace;
    const TraceEvent &e = trace.events[i];
    const Module &module = tr->module;
    const ConvLayout &layout = tr->layout;
    const DecodedProgram &decoded = tr->decoded;
    const FuncId func = e.func;
    const BlockId block = e.block;

    const Function &fn = module.functions[func];
    const std::uint64_t pc = layout.addrOf(func, block);
    const Operation &term = fn.blocks[block].terminator();
    const unsigned last_op_idx =
        opBase + decoded.unit(func, block).opCount - 1;

    switch (e.exit) {
      case ExitKind::Trap: {
        ++nPredictions;
        const bool predicted =
            trapDir ? *trapDir : predictor.predictTaken(pc);
        predictor.update(pc, e.taken);
        if (predicted != e.taken) {
            ++nTrapMiss;
            pendingRedirect.mispredicted = true;
            pendingRedirect.resolveInWrongBlock = false;
            pendingRedirect.resolveOpIdx = last_op_idx;
            // The wrongly fetched block is the predicted direction's
            // target.
            const BlockId wrong =
                predicted ? term.target0 : term.target1;
            const DecodedUnit &wdu = decoded.unit(func, wrong);
            pendingRedirect.wrongOps = decoded.ops(wdu);
            pendingRedirect.wrongOpCount = wdu.opCount;
            pendingRedirect.wrongPc = layout.addrOf(func, wrong);
            pendingRedirect.wrongBytes = layout.bytesOf(func, wrong);
        }
        break;
      }
      case ExitKind::IJump: {
        ++nPredictions;
        const std::uint64_t actual =
            blockToken(trace.nextFunc(i), trace.nextBlock(i));
        const std::uint64_t predicted = predictor.predictTarget(pc);
        predictor.updateTarget(pc, actual);
        if (predicted != actual) {
            ++nTrapMiss;
            pendingRedirect.mispredicted = true;
            pendingRedirect.resolveOpIdx = last_op_idx;
            if (predicted != ~0ull) {
                const auto wrong_func =
                    static_cast<FuncId>(predicted >> 32);
                const auto wrong_block =
                    static_cast<BlockId>(predicted & 0xffffffff);
                const DecodedUnit &wdu =
                    decoded.unit(wrong_func, wrong_block);
                pendingRedirect.wrongOps = decoded.ops(wdu);
                pendingRedirect.wrongOpCount = wdu.opCount;
                pendingRedirect.wrongPc =
                    layout.addrOf(wrong_func, wrong_block);
                pendingRedirect.wrongBytes =
                    layout.bytesOf(wrong_func, wrong_block);
            }
        }
        break;
      }
      case ExitKind::Call:
        // Push the continuation; the callee entry is decodable.
        predictor.returnStack().push(blockToken(func, term.target0));
        break;
      case ExitKind::Ret: {
        ++nPredictions;
        const std::uint64_t actual =
            blockToken(trace.nextFunc(i), trace.nextBlock(i));
        const std::uint64_t predicted = predictor.returnStack().pop();
        if (predicted != actual) {
            ++nTrapMiss;
            pendingRedirect.mispredicted = true;
            pendingRedirect.resolveOpIdx = last_op_idx;
        }
        break;
      }
      case ExitKind::Jump:
      case ExitKind::Halt:
        break;  // targets are decodable; never mispredicted
    }
}

void
ConvFetchWalker::captureStep(FetchOutcomeStream &out)
{
    const ExecTrace &trace = tr->trace;
    // The redirect recorded by the PREVIOUS event's prediction applies
    // to this unit's fetch; store it sparsely against this step.
    if (pendingRedirect.mispredicted) {
        out.redirectStep.push_back(
            static_cast<std::uint32_t>(out.steps.size()));
        out.redirects.push_back(pendingRedirect);
    }
    // Every group commits the event's block at this position, so
    // coincident groups fuse into one batch.
    FetchOutcomeRecord rec;
    rec.pos = pos;
    rec.committed = trace.events[pos].block;
    rec.memOffset = trace.events[pos].memBegin;
    rec.memCount = trace.memCount(pos);
    out.steps.push_back(rec);
    ++nFetchSteps;
    predictSuccessor(pos++);
}

} // namespace bsisa
