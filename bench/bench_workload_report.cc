/**
 * @file
 * Workload characterization report: the synthetic SPECint95 stand-ins'
 * architecturally relevant properties, next to the real benchmarks'
 * published character.  This is the evidence for DESIGN.md's
 * substitution argument — the three axes the paper's results hinge on
 * (code footprint, basic-block size, branch predictability) plus call
 * density and the library share.
 */

#include <iostream>
#include <map>

#include "bench_common.hh"
#include "exp/figures.hh"
#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "support/table.hh"

using namespace bsisa;

namespace
{

void
report()
{
    const std::uint64_t divisor = scaleDivisor() * 4;
    std::cout << "Synthetic workload characterization (dynamic "
                 "properties at 1/4 scale budget).\n\n";
    Table t({"Benchmark", "code KB", "funcs", "dyn block", "call+ret%",
             "lib%", "branch acc", "dcache miss%"});
    for (const auto &bench : specint95Suite()) {
        const Module m = generateWorkload(bench.params);

        std::vector<bool> is_lib;
        for (const auto &f : m.functions)
            is_lib.push_back(f.isLibrary);

        Interp::Limits limits;
        limits.maxOps = bench.paperInstructions / divisor;
        // One trace (store-served when warm) answers both the
        // characterization walk and the timing pair.
        const ExecTrace trace = captureOrLoadTrace(m, limits);
        std::uint64_t blocks = 0, ops = 0, callret = 0, lib_blocks = 0;
        for (std::size_t i = 0; i < trace.eventCount; ++i) {
            const TraceEvent &ev = trace.events[i];
            ++blocks;
            ops += m.functions[ev.func].blocks[ev.block].ops.size();
            callret += ev.exit == ExitKind::Call ||
                       ev.exit == ExitKind::Ret;
            lib_blocks += is_lib[ev.func];
        }

        RunConfig config;
        config.limits = limits;
        const PairResult r = runPair(m, config, trace);

        t.addRow({bench.params.name,
                  Table::fmt(m.numOps() * opBytes / 1024.0, 1),
                  Table::fmt(std::uint64_t(m.functions.size())),
                  Table::fmt(double(ops) / double(blocks), 2),
                  Table::fmt(100.0 * double(callret) / double(blocks),
                             1),
                  Table::fmt(100.0 * double(lib_blocks) /
                                 double(blocks),
                             1),
                  Table::fmt(100.0 * r.conv.branchAccuracy(), 1) + "%",
                  Table::fmt(100.0 * r.conv.dcache.missRate(), 2)});
    }
    t.print(std::cout);
    std::cout <<
        "\nIntended character (see src/workloads/specmix.cc):\n"
        "  - gcc/go/vortex: large code, small blocks, weaker "
        "prediction (gcc/go)\n"
        "  - compress/li: tiny code; li call-dominated, compress "
        "loop/data-dominated\n"
        "  - ijpeg/m88ksim: predictable, larger blocks (ijpeg) / "
        "dispatch loops (m88ksim)\n";
}

} // namespace

int
main()
{
    return bsisabench::benchMain(report);
}
