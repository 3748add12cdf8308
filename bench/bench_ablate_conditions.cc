/**
 * @file
 * Ablation: enlargement termination conditions 4 and 5.
 *
 * The paper justifies condition 4 (never merge separate loop
 * iterations) as a code-expansion guard "without significantly
 * affecting performance", and condition 5 (library code) as a
 * toolchain limitation.  This bench lifts each restriction and
 * measures what the paper chose not to pay for.
 */

#include <iostream>

#include "bench_common.hh"
#include "exp/figures.hh"

int
main()
{
    return bsisabench::benchMain(
        [] { bsisa::runConditionsAblation(std::cout); });
}
