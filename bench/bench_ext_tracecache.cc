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

#include <iostream>

#include "bench_common.hh"
#include "exp/figures.hh"

int
main()
{
    return bsisabench::benchMain(
        [] { bsisa::runTraceCacheComparison(std::cout); });
}
