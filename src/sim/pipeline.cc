/**
 * @file
 * Pipeline core implementation.
 *
 * The scheduling arithmetic lives in LanePipelines (sim/lockstep.cc):
 * a sequential simulation is exactly a one-lane lockstep batch, so the
 * singleton and batched sweep paths share a single source of truth and
 * the lockstep engine's bit-exactness contract is structural rather
 * than maintained-by-hand.
 *
 * Both scheduling paths walk flat DecodedOp arrays (sim/decoded.hh).
 * The register conventions established at decode time — absent sources
 * read regZero, whose ready time is pinned at 0; absent destinations
 * write the regDump slot, which is never read — let the loops read
 * both sources and write the destination unconditionally, with no
 * per-op opcode dispatch.
 */

#include "sim/pipeline.hh"

#include "sim/lockstep.hh"

namespace bsisa
{

SimResult
simulatePipeline(FetchSource &source, const MachineConfig &config)
{
    LanePipelines lane(&config, 1);

    TimingUnit unit;
    while (source.next(unit))
        lane.step(0, unit);

    SimResult result = lane.takeResult(0);
    fillSourceStats(result, source.counters());
    return result;
}

} // namespace bsisa
