/**
 * @file
 * Extension bench: the block-structured ISA versus a conventional ISA
 * with a TRACE CACHE (Rotenberg et al., the paper's reference [19]).
 *
 * Section 3 of the paper argues the two approaches are close cousins:
 * the trace cache combines blocks at run time (no ISA change, no code
 * expansion, but limited by its own capacity), block enlargement at
 * compile time (whole icache available, but duplicated code).  This
 * bench quantifies that trade-off on the synthetic suite, sweeping the
 * trace cache size.
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"
#include "exp/figures.hh"
#include "sim/tc_source.hh"
#include "sim/trace_store.hh"
#include "support/table.hh"

using namespace bsisa;

namespace
{

void
report()
{
    const std::uint64_t divisor = scaleDivisor() * 2;
    std::cout << "Extension: block-structured ISA vs conventional +"
                 " trace cache\n(64KB icache; trace cache: up to 3"
                 " blocks / 16 ops per trace).\n\n";

    Table t({"Benchmark", "conv", "conv+TC(64)", "conv+TC(256)",
             "BSA", "TC(256) hit%", "best"});
    for (const auto &bench : specint95Suite()) {
        const Module m = generateWorkload(bench.params);
        Interp::Limits limits;
        limits.maxOps = bench.paperInstructions / divisor;
        MachineConfig machine;

        // One committed stream feeds all four timing runs.
        const ExecTrace trace = captureOrLoadTrace(m, limits);

        const SimResult conv = runConventional(m, machine, trace);

        TraceCacheConfig tc64;
        tc64.entries = 64;
        TraceCacheConfig tc256;
        tc256.entries = 256;
        const TraceCacheResult small =
            runTraceCache(m, machine, tc64, trace);
        const TraceCacheResult big =
            runTraceCache(m, machine, tc256, trace);

        RunConfig config;
        config.limits = limits;
        const PairResult pair = runPair(m, config, trace);

        const std::uint64_t best =
            std::min({small.sim.cycles, big.sim.cycles,
                      pair.bsa.cycles});
        t.addRow({bench.params.name, Table::fmtSep(conv.cycles),
                  Table::fmtSep(small.sim.cycles),
                  Table::fmtSep(big.sim.cycles),
                  Table::fmtSep(pair.bsa.cycles),
                  Table::fmt(100.0 * big.hitRate(), 1),
                  best == pair.bsa.cycles ? "BSA" : "trace cache"});
    }
    t.print(std::cout);
    std::cout << "\nBoth techniques combine blocks; the trace cache "
                 "avoids code expansion but only\nhelps on paths it has "
                 "already seen and that fit its capacity, while block\n"
                 "enlargement bakes every combination into the "
                 "executable (paper, section 3).\n";
}

} // namespace

int
main()
{
    return bsisabench::benchMain(report);
}
