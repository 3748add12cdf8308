/**
 * @file
 * Fetch source for a conventional machine augmented with a TRACE
 * CACHE — the paper's closest competitor (section 3) and suggested
 * complement (section 6).
 *
 * The machine is the conventional fetch walker (sim/conv_source.hh)
 * plus a trace cache: one ConvFetchWalker predicts, trains, counts
 * and redirects every committed block, exactly as on the plain
 * machine, and this source adds only what the trace cache needs — a
 * multi-block direction lookahead, the cache lookup, the fill unit
 * and the concatenated ops of a hit.  The core fetch unit supplies one
 * basic block per cycle from the icache; the trace cache supplies a
 * whole multi-block trace in one cycle when the predicted path matches
 * a recorded trace.  Traces are built at RETIREMENT from the committed
 * stream (run-time combining, in contrast to the block-structured
 * ISA's compile-time combining: no ISA change, no code expansion, but
 * bounded by the trace cache's own capacity).  A trace cache that
 * never hits is therefore the conventional machine, result for result.
 */

#ifndef BSISA_SIM_TC_SOURCE_HH
#define BSISA_SIM_TC_SOURCE_HH

#include <vector>

#include "cache/trace_cache.hh"
#include "sim/conv_source.hh"

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

    FetchWalkCounters counters() const override { return walker; }

    /** Trace-cache hit/miss statistics. */
    std::uint64_t traceHits() const { return cache.hits(); }
    std::uint64_t traceMisses() const { return cache.misses(); }

    /** The walker points at this object's translation. */
    TraceCacheFetchSource(const TraceCacheFetchSource &) = delete;
    TraceCacheFetchSource &
    operator=(const TraceCacheFetchSource &) = delete;

  private:
    /** Lookahead window depth for multi-block direction prediction:
     *  events [pos, pos + min(lookahead, eventCount - pos)). */
    static constexpr std::size_t lookahead = 16;

    ConvTranslation translation;
    /** Prediction, counters, the cursor (walker.pos) and the redirect
     *  the last committed block left for the next unit. */
    ConvFetchWalker walker;
    TraceCache cache;

    /** Fill unit: committed blocks accumulating into a new trace. */
    Trace fill;

    /** The emitted unit's concatenated ops (reused across units). */
    std::vector<DecodedOp> emitOps;
    /** Direction predictions along the upcoming path, reused. */
    std::vector<bool> predictedDirs;

    /** Append a committed block to the fill unit, flushing when the
     *  trace is complete. */
    void fillWith(const TraceEvent &ev);
    void flushFill();
};

} // namespace bsisa

#endif // BSISA_SIM_TC_SOURCE_HH
