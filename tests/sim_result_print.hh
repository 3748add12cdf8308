/**
 * @file
 * gtest printers for SimResult and CacheStats: an EXPECT_EQ on two
 * results prints both sides field by field, so a failure names the
 * fields that differ.
 */

#ifndef BSISA_TESTS_SIM_RESULT_PRINT_HH
#define BSISA_TESTS_SIM_RESULT_PRINT_HH

#include <ostream>

#include "sim/machine.hh"

namespace bsisa
{

inline void
PrintTo(const CacheStats &s, std::ostream *os)
{
    *os << "{accesses=" << s.accesses << " misses=" << s.misses << "}";
}

inline void
PrintTo(const SimResult &r, std::ostream *os)
{
    *os << "{cycles=" << r.cycles << " retiredOps=" << r.retiredOps
        << " retiredUnits=" << r.retiredUnits
        << " wrongPathOps=" << r.wrongPathOps
        << " predictions=" << r.predictions
        << " mispredicts=" << r.mispredicts
        << " trapMispredicts=" << r.trapMispredicts
        << " faultMispredicts=" << r.faultMispredicts
        << " cascadeHops=" << r.cascadeHops
        << " stallRedirect=" << r.stallRedirect
        << " stallWindow=" << r.stallWindow
        << " stallIcache=" << r.stallIcache
        << " peakWindowUnits=" << r.peakWindowUnits
        << " peakWindowOps=" << r.peakWindowOps << " icache=";
    PrintTo(r.icache, os);
    *os << " dcache=";
    PrintTo(r.dcache, os);
    *os << "}";
}

} // namespace bsisa

#endif // BSISA_TESTS_SIM_RESULT_PRINT_HH
