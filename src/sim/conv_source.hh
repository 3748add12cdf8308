/**
 * @file
 * Fetch source for the conventional machine: one basic block per
 * cycle, a classic two-level adaptive predictor for trap directions,
 * BTB-predicted indirect jumps, and a return address stack.
 */

#ifndef BSISA_SIM_CONV_SOURCE_HH
#define BSISA_SIM_CONV_SOURCE_HH

#include "codegen/layout.hh"
#include "predict/twolevel.hh"
#include "sim/fetch_outcome.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

/**
 * The conventional machine's prediction state for one config: the
 * two-level trap predictor, BTB, and return stack, plus the redirect
 * info describing how the *next* unit gets fetched.
 *
 * Factored out of ConvFetchSource so the lockstep batch driver
 * (sim/lockstep.cc) can walk the shared trace once and advance one
 * ConvPredictor per lane — the only config-dependent piece of the
 * conventional fetch path.
 */
class ConvPredictor
{
  public:
    ConvPredictor(const Module &module, const ConvLayout &layout,
                  const DecodedProgram &decoded,
                  const MachineConfig &config)
        : module(module), layout(layout), decoded(decoded),
          perfect(config.perfectPrediction),
          predictor(config.predictor)
    {
    }

    /** Predict the successor of the event just emitted, training the
     *  predictor and filling pending() for the NEXT unit. */
    void predictSuccessor(FuncId func, BlockId block, ExitKind exit,
                          bool taken, FuncId nextFunc,
                          BlockId nextBlock);

    /**
     * Decoupled fetch-outcome pre-pass: run this predictor over trace
     * positions [@p begin, @p end) in one sweep, appending the sparse
     * redirect outcomes to @p out (redirects[i] applies to the unit
     * fetched at trace position redirectStep[i]).  The conventional
     * machine's units ARE the trace events, so no per-step records
     * are stored — a timing walk reconstructs each unit from the
     * event and gathers its lane's redirect by cursor.  Same call
     * sequence as ConvFetchSource (pending() read before
     * predictSuccessor() per event), so consecutive windows leave the
     * trained predictor state and the statistics bit-identical to a
     * singleton replay.
     */
    void captureOutcomes(const ExecTrace &trace, std::size_t begin,
                         std::size_t end, FetchOutcomeStream &out);

    /** Redirect info for the unit about to be fetched. */
    const RedirectInfo &pending() const { return pendingRedirect; }

    std::uint64_t predictions() const { return nPredictions; }
    std::uint64_t mispredicts() const { return nMispredicts; }

  private:
    const Module &module;
    const ConvLayout &layout;
    const DecodedProgram &decoded;
    bool perfect;
    TwoLevelPredictor predictor;
    RedirectInfo pendingRedirect;
    std::uint64_t nPredictions = 0;
    std::uint64_t nMispredicts = 0;
};

/**
 * The conventional machine's fetch unit for trace event @p e: its
 * basic block, as laid out and decoded, and its memory span.  Shared
 * by ConvFetchSource and the lockstep walk (sim/lockstep.cc); the
 * redirect is left to the caller.
 */
inline void
convUnitOf(const ConvLayout &layout, const DecodedProgram &decoded,
           const ExecTrace &trace, const TraceEvent &e,
           TimingUnit &unit)
{
    unit.pc = layout.addrOf(e.func, e.block);
    unit.bytes = layout.bytesOf(e.func, e.block);
    const DecodedUnit &du = decoded.unit(e.func, e.block);
    unit.ops = decoded.ops(du);
    unit.opCount = du.opCount;
    unit.memAddrs = trace.memAddrs + e.memBegin;
    unit.memCount = e.memCount;
}

class ConvFetchSource : public FetchSource
{
  public:
    /** Replay @p trace.  @p decoded is DecodedProgram::forModule of
     *  @p module, owned by the caller so a batch shares one copy. */
    ConvFetchSource(const Module &module, const ConvLayout &layout,
                    const MachineConfig &config, const ExecTrace &trace,
                    const DecodedProgram &decoded);

    bool next(TimingUnit &unit) override;

    std::uint64_t predictions() const override
    {
        return pred.predictions();
    }
    std::uint64_t mispredicts() const override
    {
        return pred.mispredicts();
    }
    std::uint64_t trapMispredicts() const override
    {
        return pred.mispredicts();
    }
    std::uint64_t faultMispredicts() const override { return 0; }
    std::uint64_t cascadeHops() const override { return 0; }

  private:
    const ConvLayout &layout;
    const DecodedProgram &decoded;
    const ExecTrace &trace;
    ConvPredictor pred;
    /** Next trace event to emit (one unit per event). */
    std::size_t pos = 0;
};

} // namespace bsisa

#endif // BSISA_SIM_CONV_SOURCE_HH
