/**
 * @file
 * The interface between the ISA-specific fetch/prediction logic and
 * the shared cycle-level pipeline core.
 *
 * A FetchSource replays the committed execution (an ExecTrace) one
 * fetch unit at a time — a basic block on the conventional machine,
 * an atomic block on the block-structured machine — performing
 * branch/successor prediction as it goes.  Each
 * emitted TimingUnit carries the unit's pre-decoded static code, its
 * dynamic memory addresses, and a description of how the unit came to
 * be fetched (cleanly, or after a resolved misprediction, including
 * the wrongly fetched block whose operations consumed machine
 * resources).
 *
 * Span lifetime: the memAddrs span is a slice of the replayed
 * ExecTrace's address pool and lives as long as the trace.  The
 * decoded-op pointers reference the caller's DecodedProgram pools,
 * except for trace-cache units, whose concatenated ops live in a
 * per-source buffer that is valid until the next next() call — the
 * window in which a consumer must copy what it retains.
 */

#ifndef BSISA_SIM_FETCH_SOURCE_HH
#define BSISA_SIM_FETCH_SOURCE_HH

#include <cstdint>

#include "sim/decoded.hh"

namespace bsisa
{

/** Opaque (func, block) token: predictor targets, return-stack
 *  entries and trace-cache block identities. */
inline std::uint64_t
blockToken(FuncId func, BlockId block)
{
    return (std::uint64_t(func) << 32) | block;
}

/** How a unit's fetch was delayed by a misprediction. */
struct RedirectInfo
{
    bool mispredicted = false;
    /** True when the resolving operation is inside the WRONG block (a
     *  fault); false when it is the previous unit's terminator. */
    bool resolveInWrongBlock = false;
    /** Index of the resolving operation within its block. */
    unsigned resolveOpIdx = 0;
    /** The wrongly fetched block (null for cold misses). */
    const DecodedOp *wrongOps = nullptr;
    std::uint32_t wrongOpCount = 0;
    std::uint64_t wrongPc = 0;
    std::uint32_t wrongBytes = 0;
    /** Additional fault-cascade redirects beyond the first. */
    unsigned extraHops = 0;
    /** Classification: fault (variant) vs trap (direction) miss. */
    bool isFault = false;
};

/** One committed fetch unit plus its fetch-path history. */
struct TimingUnit
{
    std::uint64_t pc = 0;
    std::uint32_t bytes = 0;
    /** True when the unit was supplied by a side structure (trace
     *  cache) and must not touch the instruction cache. */
    bool skipIcache = false;
    const DecodedOp *ops = nullptr;
    std::uint32_t opCount = 0;
    /** Ld/St addresses in operation order (correct path only). */
    const std::uint64_t *memAddrs = nullptr;
    std::uint32_t memCount = 0;
    RedirectInfo redirect;
};

/** The prediction statistics every fetch source keeps. */
struct FetchWalkCounters
{
    std::uint64_t nPredictions = 0;
    /** Mispredicts resolved by the previous unit's terminator. */
    std::uint64_t nTrapMiss = 0;
    /** Mispredicts resolved by a fault in the wrong block (BSA). */
    std::uint64_t nFaultMiss = 0;
    /** Wrong blocks walked in fault-target cascades (BSA). */
    std::uint64_t nCascadeHops = 0;
    std::uint64_t nFetchSteps = 0;  //!< records captured in total
};

class FetchSource
{
  public:
    virtual ~FetchSource() = default;

    /** Produce the next committed unit; false at end of program. */
    virtual bool next(TimingUnit &unit) = 0;

    /** Prediction statistics of the units produced so far. */
    virtual FetchWalkCounters counters() const = 0;
};

} // namespace bsisa

#endif // BSISA_SIM_FETCH_SOURCE_HH
