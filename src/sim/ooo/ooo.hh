/**
 * @file
 * High-fidelity out-of-order backend behind the FetchSource seam.
 *
 * simulateOoO() consumes the identical TimingUnit stream as the
 * abstract model (sim/pipeline.hh) — same fetch bandwidth, icache,
 * redirect-resolution and frontend-depth discipline — but replaces
 * the flat window + uniform-FU backend with a ROB (in-order commit,
 * finite commit width), RAT renaming with a timed free list,
 * per-class reservation stations over per-class functional units, and
 * an LSQ with store-to-load forwarding and conservative alias stalls.
 * Redirects rename the wrong-path ops under a RAT checkpoint and
 * squash by restoring it.  See DESIGN.md §5.18.
 *
 * The model is timing-only: no data values flow.  Its committed-state
 * evidence is the commit-order digest — each unit's identity (pc,
 * size, op count, data addresses) is folded into an FNV-1a digest
 * when the unit drains from the ROB, computed from copies the backend
 * retained at fetch time.  Because the ROB holds units across many
 * subsequent next() calls, equality with fetchStreamDigest() — the
 * same fold done at emit time on a fresh walk — proves the reordering
 * consumer honoured the address-slice lifetime contract.  The copies
 * and the fold are an audit kept only when the caller passes an
 * OooTelemetry; without one (the runner's path) a ROB slot holds just
 * its commit cycle and op count, and the SimResult is the same.
 */

#ifndef BSISA_SIM_OOO_OOO_HH
#define BSISA_SIM_OOO_OOO_HH

#include <cstdint>

#include "sim/fetch_source.hh"
#include "sim/machine.hh"

namespace bsisa
{

/** Functional-unit classes of the OoO backend.  Classification is by
 *  decoded latency (Table 1): memory ops to Mem, divides (8) to Div,
 *  FP add / multiply (3) to MulFp, everything single-cycle to Alu. */
enum OooFuClass : unsigned
{
    oooClsAlu = 0,
    oooClsMem,
    oooClsMulFp,
    oooClsDiv,
    oooNumClasses,
};

/** Backend-side counters of one simulateOoO() run.  The violation
 *  counters at the bottom are zero on every run by construction and
 *  are asserted zero by tests/test_ooo.cc and the `ooo` fuzz oracle.
 */
struct OooTelemetry
{
    /** Commit-order fold of every committed unit's identity, from
     *  data retained across reordered consumption.  Filled only
     *  when telemetry is requested: a run without it keeps no
     *  copies and folds nothing. */
    std::uint64_t commitDigest = 0;

    std::uint64_t forwardedLoads = 0;   //!< exact-match store forwards
    std::uint64_t overlapStallLoads = 0;//!< partial-overlap waits
    std::uint64_t checkpointsTaken = 0;
    std::uint64_t checkpointsRestored = 0;
    std::uint64_t renameStallCycles = 0;//!< free-list-dry dispatch delay
    std::uint64_t peakRobOps = 0;
    std::uint64_t peakRobUnits = 0;
    std::uint64_t peakLsq = 0;

    /** ROB occupancy exceeded MachineConfig::ooo.robOps. */
    std::uint64_t robOverflows = 0;
    /** A unit's commit cycle preceded its predecessor's. */
    std::uint64_t commitOrderViolations = 0;
    /** A load forwarded from a store younger than itself. */
    std::uint64_t youngerForwards = 0;
};

/**
 * Run the out-of-order timing model over @p source.  The SimResult
 * mirrors the abstract model's shape; for this model peakWindowUnits
 * and peakWindowOps report ROB occupancy (bounded by config.ooo).
 */
SimResult simulateOoO(FetchSource &source, const MachineConfig &config,
                      OooTelemetry *telemetry = nullptr);

/**
 * Emit-time reference for OooTelemetry::commitDigest: walk @p source
 * to exhaustion folding each unit's identity while its spans are
 * still live.  In-order commit makes commit order equal emit order,
 * so a correct backend reproduces this digest exactly.
 */
std::uint64_t fetchStreamDigest(FetchSource &source);

} // namespace bsisa

#endif // BSISA_SIM_OOO_OOO_HH
