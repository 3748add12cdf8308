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

#include "bench_common.hh"
#include "exp/figures.hh"

int
main()
{
    return bsisabench::benchMain(
        [] { bsisa::runWorkloadReport(std::cout); });
}
