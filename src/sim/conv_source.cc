/**
 * @file
 * Conventional fetch source implementation.
 */

#include "sim/conv_source.hh"

#include "support/logging.hh"

namespace bsisa
{

ConvFetchSource::ConvFetchSource(const Module &mod,
                                 const ConvLayout &lay,
                                 const MachineConfig &config,
                                 const ExecTrace &execTrace,
                                 const DecodedProgram &decodedProgram)
    : layout(lay), decoded(decodedProgram), trace(execTrace),
      pred(mod, lay, decodedProgram, config)
{
}

void
ConvPredictor::predictSuccessor(FuncId func, BlockId block,
                                ExitKind exit, bool taken,
                                FuncId nextFunc, BlockId nextBlock)
{
    pendingRedirect = RedirectInfo{};
    if (perfect)
        return;

    const Function &fn = module.functions[func];
    const std::uint64_t pc = layout.addrOf(func, block);
    const Operation &term = fn.blocks[block].terminator();
    const unsigned last_op_idx =
        decoded.unit(func, block).opCount - 1;

    switch (exit) {
      case ExitKind::Trap: {
        ++nPredictions;
        const bool predicted = predictor.predictTaken(pc);
        predictor.update(pc, taken);
        if (predicted != taken) {
            ++nMispredicts;
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
        const std::uint64_t actual = blockToken(nextFunc, nextBlock);
        const std::uint64_t predicted = predictor.predictTarget(pc);
        predictor.updateTarget(pc, actual);
        if (predicted != actual) {
            ++nMispredicts;
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
        predictor.pushReturn(blockToken(func, term.target0));
        break;
      case ExitKind::Ret: {
        ++nPredictions;
        const std::uint64_t actual = blockToken(nextFunc, nextBlock);
        const std::uint64_t predicted = predictor.popReturn();
        if (predicted != actual) {
            ++nMispredicts;
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
ConvPredictor::captureOutcomes(const ExecTrace &trace, std::size_t begin,
                               std::size_t end, FetchOutcomeStream &out)
{
    // The timing walk compares redirect steps against truncated
    // positions, so the stream length must fit the 32-bit step
    // indices (the BSA driver asserts the same bound).
    BSISA_ASSERT(trace.eventCount <= 0xffffffffull,
                 "redirect step indices are 32-bit");
    for (std::size_t pos = begin; pos < end; ++pos) {
        const TraceEvent &e = trace.events[pos];
        if (pendingRedirect.mispredicted) {
            out.redirects.push_back(pendingRedirect);
            out.redirectStep.push_back(
                static_cast<std::uint32_t>(pos));
        }
        predictSuccessor(e.func, e.block, e.exit, e.taken, e.nextFunc,
                         e.nextBlock);
    }
}

bool
ConvFetchSource::next(TimingUnit &unit)
{
    if (pos >= trace.eventCount)
        return false;
    const TraceEvent &e = trace.events[pos++];

    convUnitOf(layout, decoded, trace, e, unit);
    unit.redirect = pred.pending();

    // Predict this unit's successor; the result describes how the
    // NEXT unit gets fetched.
    pred.predictSuccessor(e.func, e.block, e.exit, e.taken, e.nextFunc,
                          e.nextBlock);
    return true;
}

} // namespace bsisa
