/**
 * @file
 * Bench binary for the paper's evaluation in one process: Table 2 and
 * Figures 3-7, in that order.  The output equals the six single-figure
 * binaries' outputs concatenated, but the drivers share the suite's
 * traces and pair results (exp/figures.cc): each trace is loaded
 * once, and Fig. 5 reuses Fig. 3's simulations.
 */

#include <iostream>

#include "bench_common.hh"
#include "exp/figures.hh"

int
main()
{
    return bsisabench::benchMain([] {
        bsisa::printTable2(std::cout);
        bsisa::runCycleComparison(std::cout, false);
        bsisa::runCycleComparison(std::cout, true);
        bsisa::runBlockSizeComparison(std::cout);
        bsisa::runIcacheSweep(std::cout, false);
        bsisa::runIcacheSweep(std::cout, true);
    });
}
