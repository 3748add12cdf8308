/**
 * @file
 * Throughput of the out-of-order backend vs the abstract model, plus
 * the dispatch-seam no-regression numbers, written (the BENCH_PR10.json
 * record) to the path in BSISA_BENCH_JSON_PR10; unset or empty writes
 * nothing.
 *
 * Three measurements over the same captured traces (two benchmarks,
 * conventional machine):
 *
 *   abstract_direct   — simulatePipeline() on a ConvFetchSource, the
 *                       pre-dispatch entry point.
 *   abstract_dispatch — runConventional() with the default config,
 *                       which now routes through simulateModel(); the
 *                       ratio dispatch/direct is the seam's overhead
 *                       and CI gates it at >= 0.95.
 *   ooo_dispatch      — runConventional() with timing_model=ooo; the
 *                       ratio ooo/abstract documents the fidelity
 *                       cost of the high-fidelity backend.
 *
 * Every variant is validated against the trace's committed-op count
 * before it is timed, so a silently wrong simulation cannot post a
 * throughput number.  Both abstract variants do the same work per run
 * (layout, decode, replay), and the three alternate repetition by
 * repetition, each keeping its best of five.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "codegen/layout.hh"
#include "exp/runner.hh"
#include "sim/conv_source.hh"
#include "sim/pipeline.hh"
#include "sim/trace.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

constexpr std::uint64_t budgetDivisor = 2000;
constexpr int reps = 5;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps throughput of each of @p runs, which must simulate
 *  the whole of @p trace and return its retired-op count.  The
 *  variants alternate repetition by repetition, so host drift falls
 *  on all of them alike. */
template <std::size_t N>
std::array<double, N>
measure(const ExecTrace &trace,
        const std::array<std::function<std::uint64_t()>, N> &runs)
{
    std::array<double, N> best{};
    for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < N; ++i) {
            const double t0 = now();
            const std::uint64_t retired = runs[i]();
            const double dt = now() - t0;
            if (retired == 0 || dt <= 0.0)
                continue;
            best[i] = std::max(best[i], double(trace.dynOps) / dt);
        }
    }
    return best;
}

void
driver()
{
    const auto suite = specint95Suite();
    // compress (small, loopy) and gcc (large code footprint): the two
    // icache extremes of the suite.
    const std::size_t picks[] = {0, 1};

    double direct = 0.0, dispatch = 0.0, ooo = 0.0;
    std::uint64_t totalOps = 0;
    std::printf("%-10s %16s %16s %16s\n", "bench", "abstract-direct",
                "abstract-dispatch", "ooo");

    for (const std::size_t pick : picks) {
        const SpecBenchmark &bench = suite[pick];
        const Module module = generateWorkload(bench.params);
        Interp::Limits limits;
        limits.maxOps = bench.scaledBudget(budgetDivisor);
        const ExecTrace trace = captureTrace(module, limits);
        MachineConfig abstractM;
        MachineConfig oooM;
        oooM.timingModel = TimingModel::Ooo;

        // Correctness pin before timing anything.
        if (runConventional(module, abstractM, trace).retiredOps !=
                trace.dynOps ||
            runConventional(module, oooM, trace).retiredOps !=
                trace.dynOps) {
            std::fprintf(stderr, "bench_ooo: %s: retired-op count "
                                 "diverged from the trace\n",
                         bench.params.name.c_str());
            std::exit(1);
        }

        // Both abstract variants build the layout and the decoded
        // program inside the timed region, as runConventional does,
        // so the ratio times equal work.
        const auto [d, v, o] = measure<3>(
            trace,
            {[&] {
                 const ConvLayout layout(module);
                 const DecodedProgram decoded =
                     DecodedProgram::forModule(module);
                 ConvFetchSource source(module, layout, abstractM,
                                        trace, decoded);
                 return simulatePipeline(source, abstractM).retiredOps;
             },
             [&] {
                 return runConventional(module, abstractM, trace)
                     .retiredOps;
             },
             [&] {
                 return runConventional(module, oooM, trace)
                     .retiredOps;
             }});

        std::printf("%-10s %16.3g %16.3g %16.3g\n",
                    bench.params.name.c_str(), d, v, o);
        // Aggregate as total-ops / total-time.
        direct += double(trace.dynOps) / d;
        dispatch += double(trace.dynOps) / v;
        ooo += double(trace.dynOps) / o;
        totalOps += trace.dynOps;
    }

    const double directIps = double(totalOps) / direct;
    const double dispatchIps = double(totalOps) / dispatch;
    const double oooIps = double(totalOps) / ooo;
    const double seamRatio =
        directIps > 0.0 ? dispatchIps / directIps : 0.0;
    const double fidelityRatio =
        dispatchIps > 0.0 ? oooIps / dispatchIps : 0.0;

    std::printf("\nabstract dispatch/direct ratio: %.3f "
                "(CI gate: >= 0.95)\n",
                seamRatio);
    std::printf("ooo/abstract throughput ratio:  %.3f\n",
                fidelityRatio);

    const char *env = std::getenv("BSISA_BENCH_JSON_PR10");
    const std::string path = env ? env : "";
    if (path.empty())
        return;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"total_trace_ops\": %llu,\n",
                 static_cast<unsigned long long>(totalOps));
    std::fprintf(f, "  \"abstract_direct_ops_per_sec\": %.9g,\n",
                 directIps);
    std::fprintf(f, "  \"abstract_dispatch_ops_per_sec\": %.9g,\n",
                 dispatchIps);
    std::fprintf(f, "  \"ooo_ops_per_sec\": %.9g,\n", oooIps);
    std::fprintf(f, "  \"abstract_dispatch_ratio\": %.6g,\n",
                 seamRatio);
    std::fprintf(f, "  \"ooo_abstract_ratio\": %.6g\n",
                 fidelityRatio);
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // namespace

int
main()
{
    return bsisabench::benchMain(driver);
}
