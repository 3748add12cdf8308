/**
 * @file
 * Fetch source for a conventional machine augmented with a TRACE
 * CACHE — the paper's closest competitor (section 3) and suggested
 * complement (section 6).
 *
 * The core fetch unit supplies one basic block per cycle from the
 * icache; the trace cache supplies a whole multi-block trace in one
 * cycle when the predicted path matches a recorded trace.  Traces are
 * built at RETIREMENT from the committed stream (run-time combining,
 * in contrast to the block-structured ISA's compile-time combining:
 * no ISA change, no code expansion, but bounded by the trace cache's
 * own capacity).
 */

#ifndef BSISA_SIM_TC_SOURCE_HH
#define BSISA_SIM_TC_SOURCE_HH

#include <vector>

#include "cache/trace_cache.hh"
#include "codegen/layout.hh"
#include "predict/twolevel.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"

namespace bsisa
{

class TraceCacheFetchSource : public FetchSource
{
  public:
    /** Replay @p trace.  @p decoded is DecodedProgram::forModule of
     *  @p module, owned by the caller so a batch shares one copy. */
    TraceCacheFetchSource(const Module &module, const ConvLayout &layout,
                          const MachineConfig &config,
                          const TraceCacheConfig &tcConfig,
                          const ExecTrace &trace,
                          const DecodedProgram &decoded);

    bool next(TimingUnit &unit) override;

    FetchWalkCounters counters() const override { return counts; }

    /** Trace-cache hit/miss statistics. */
    std::uint64_t traceHits() const { return cache.hits(); }
    std::uint64_t traceMisses() const { return cache.misses(); }

  private:
    /** Lookahead window depth for multi-block direction prediction:
     *  events [pos, pos + min(lookahead, eventCount - pos)). */
    static constexpr std::size_t lookahead = 16;

    const Module &module;
    const ConvLayout &layout;
    const DecodedProgram &decoded;
    const ExecTrace &trace;
    bool perfect;
    TwoLevelPredictor predictor;
    TraceCache cache;

    /** First unconsumed trace event. */
    std::size_t pos = 0;

    /** Redirect computed while emitting the previous unit. */
    RedirectInfo pendingRedirect;

    /** Fill unit: committed blocks accumulating into a new trace. */
    Trace fill;

    /** The emitted unit's concatenated ops (reused across units). */
    std::vector<DecodedOp> emitOps;
    /** Direction predictions along the upcoming path, reused. */
    std::vector<bool> predictedDirs;

    /** Every mispredict resolves at a terminator, so all count as
     *  trap mispredicts. */
    FetchWalkCounters counts;

    /** Predict the direction of the trap ending @p ev's block; counts
     *  and trains.  Returns predicted direction. */
    bool predictTrap(const TraceEvent &ev);

    /** Handle the non-trap exits (call/ret/ijmp bookkeeping). */
    void handleExit(const TraceEvent &ev);

    /** Append a committed block to the fill unit, flushing when the
     *  trace is complete. */
    void fillWith(const TraceEvent &ev);
    void flushFill();
};

} // namespace bsisa

#endif // BSISA_SIM_TC_SOURCE_HH
