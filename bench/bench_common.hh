/**
 * @file
 * Shared main() wrapper for the bench binaries.
 *
 * Every bench driver runs through benchMain(): the driver's table
 * output goes to stdout exactly as before, and when a trace store is
 * configured (BSISA_TRACE_DIR) a one-line traffic summary goes to
 * stderr — warm entries served, cold captures, rejected-and-repaired
 * entries, and the number of live functional executions.  A trace
 * the store holds is resident only while a sweep or driver uses it
 * (DESIGN.md decision 25), so warm= counts entry opens: each driver
 * call that simulates opens its benchmarks' entries again, and
 * Table 2 on a warm store reads only their headers (bench_paper_figures
 * opens 24: Fig. 3, 4 and 6 each open the suite's 8).  With
 * BSISA_EXPECT_WARM=1 the wrapper turns "the whole run replayed from
 * disk" into an exit status: any live interpreter invocation (a cold
 * or rejected entry) fails the binary, which is how CI proves a warm
 * suite performs zero functional executions.
 */

#ifndef BSISA_BENCH_BENCH_COMMON_HH
#define BSISA_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <functional>

#include "sim/interp.hh"
#include "sim/trace_store.hh"
#include "support/env.hh"

namespace bsisabench
{

/** Stderr-only trace-store traffic report (no-op when disabled). */
inline void
reportTraceStore()
{
    const bsisa::TraceStore store = bsisa::TraceStore::fromEnv();
    if (!store.enabled())
        return;
    const bsisa::TraceStoreStats s = bsisa::TraceStore::stats();
    std::fprintf(stderr,
                 "trace-store: dir=%s warm=%llu cold=%llu "
                 "fallback=%llu live-interp-runs=%llu\n",
                 store.directory().c_str(),
                 static_cast<unsigned long long>(s.warmLoads),
                 static_cast<unsigned long long>(s.coldCaptures),
                 static_cast<unsigned long long>(s.fallbacks),
                 static_cast<unsigned long long>(
                     bsisa::interpInvocations()));
}

/** Run @p driver, report store traffic, enforce BSISA_EXPECT_WARM. */
inline int
benchMain(const std::function<void()> &driver)
{
    driver();
    reportTraceStore();
    if (bsisa::envSet("BSISA_EXPECT_WARM") &&
        bsisa::interpInvocations() != 0) {
        std::fprintf(stderr,
                     "error: BSISA_EXPECT_WARM is set but %llu live "
                     "functional executions ran (cold or rejected "
                     "trace-store entries)\n",
                     static_cast<unsigned long long>(
                         bsisa::interpInvocations()));
        return 1;
    }
    return 0;
}

} // namespace bsisabench

#endif // BSISA_BENCH_BENCH_COMMON_HH
