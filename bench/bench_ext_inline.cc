/**
 * @file
 * Extension bench: inlining as an enlargement enabler (section 6).
 *
 * The paper names procedure calls and returns as the main reason block
 * enlargement leaves half the fetch bandwidth unused, and proposes
 * inlining as the fix.  This bench runs the suite with and without
 * small-leaf inlining and reports the change in average block size and
 * execution-time reduction.
 */

#include <iostream>

#include "bench_common.hh"
#include "exp/figures.hh"

int
main()
{
    return bsisabench::benchMain(
        [] { bsisa::runInlineExtension(std::cout); });
}
