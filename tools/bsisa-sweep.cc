/**
 * @file
 * Sweep-service CLI.
 *
 * Usage:
 *   bsisa-sweep run <spec> --store DIR [--workers N] [--chunk K]
 *                   [--trace-dir DIR]
 *       Coordinate a full sweep: spawn N worker processes (children
 *       of this one), resume anything they leave behind, verify
 *       completeness, compact the store.  N and K are plain decimal
 *       counts (N at most 256); anything else prints the usage and
 *       exits 2 before any process starts.
 *   bsisa-sweep worker <spec> --store DIR [--chunk K] [--trace-dir D]
 *       Run one worker against an existing store.  Independently
 *       launched workers pointed at the same store cooperate through
 *       leases; this is also what `run` spawns.
 *   bsisa-sweep plan <spec>
 *       Print the plan: spec digest, units, chunks (no simulation).
 *   bsisa-sweep render <spec> --store DIR
 *       Render the spec's figure from stored results, byte-identical
 *       to the monolithic figure drivers.
 *   bsisa-sweep status --store DIR [--trace-dir DIR]
 *       Store health: records, torn tails, leases, plan markers, and
 *       the trace-store listing when one is configured.
 *   bsisa-sweep compact --store DIR
 *       Fold all shards into a deterministic snapshot.
 *
 * Exit status: 0 on success; with BSISA_EXPECT_WARM set, `run` and
 * `worker` additionally fail if any live functional execution
 * happened (the warm-resweep proof, same contract as the bench
 * binaries).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "exp/plan.hh"
#include "exp/result_store.hh"
#include "exp/service.hh"
#include "exp/spec.hh"
#include "sim/interp.hh"
#include "support/env.hh"

using namespace bsisa;

namespace
{

/** The most worker processes `run` spawns. */
constexpr std::uint64_t maxWorkers = 256;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: bsisa-sweep run <spec> --store DIR [--workers N] "
        "[--chunk K] [--trace-dir DIR]\n"
        "         (N and K are decimal counts, N at most %llu)\n"
        "       bsisa-sweep worker <spec> --store DIR [--chunk K] "
        "[--trace-dir DIR]\n"
        "       bsisa-sweep plan <spec>\n"
        "       bsisa-sweep render <spec> --store DIR\n"
        "       bsisa-sweep status --store DIR [--trace-dir DIR]\n"
        "       bsisa-sweep compact --store DIR\n",
        static_cast<unsigned long long>(maxWorkers));
    return 2;
}

struct Cli
{
    std::string command;
    std::string specPath;
    std::string storeDir;
    std::string traceDir;
    std::uint64_t chunk = 0;
    unsigned workers = 1;
};

/** Parse @p text as an unsigned decimal at most @p max: digits only,
 *  so an empty, signed or trailing-garbage value is rejected rather
 *  than read as a prefix (strtoull reads "-1" as 2^64-1, "4x" as 4
 *  and "abc" as 0). */
bool
parseCount(const char *text, std::uint64_t max, std::uint64_t &out)
{
    if (*text == '\0')
        return false;
    out = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        const unsigned digit = unsigned(*p - '0');
        if (out > (max - digit) / 10)
            return false;
        out = out * 10 + digit;
    }
    return true;
}

bool
parseCli(int argc, char **argv, Cli &cli)
{
    if (argc < 2)
        return false;
    cli.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--store") {
            if (++i >= argc)
                return false;
            cli.storeDir = argv[i];
        } else if (arg == "--trace-dir") {
            if (++i >= argc)
                return false;
            cli.traceDir = argv[i];
        } else if (arg == "--chunk") {
            if (++i >= argc)
                return false;
            if (!parseCount(argv[i], UINT64_MAX, cli.chunk))
                return false;
        } else if (arg == "--workers") {
            std::uint64_t workers = 0;
            if (++i >= argc || !parseCount(argv[i], maxWorkers, workers))
                return false;
            cli.workers = workers ? unsigned(workers) : 1;
        } else if (!arg.empty() && arg[0] == '-') {
            return false;
        } else if (cli.specPath.empty()) {
            cli.specPath = arg;
        } else {
            return false;
        }
    }
    return true;
}

bool
loadSpec(const Cli &cli, SweepSpec &spec)
{
    if (cli.specPath.empty()) {
        std::fprintf(stderr, "error: missing spec file\n");
        return false;
    }
    std::string error;
    if (!parseSweepSpecFile(cli.specPath, spec, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return false;
    }
    return true;
}

/** The BSISA_EXPECT_WARM contract (same as bench_common.hh): any
 *  live functional execution fails the process. */
int
enforceExpectWarm()
{
    if (envSet("BSISA_EXPECT_WARM") && interpInvocations() != 0) {
        std::fprintf(stderr,
                     "error: BSISA_EXPECT_WARM is set but %llu live "
                     "functional executions ran\n",
                     static_cast<unsigned long long>(
                         interpInvocations()));
        return 1;
    }
    return 0;
}

int
cmdPlan(const Cli &cli)
{
    SweepSpec spec;
    if (!loadSpec(cli, spec))
        return 1;
    SweepPlan plan;
    std::string error;
    if (!buildPlan(spec, cli.chunk, plan, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::printf("spec: %s\n", spec.name.c_str());
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(plan.specDigest));
    std::printf("benchmarks: %zu\n", plan.benches.size());
    std::printf("grid points: %zu\n", plan.gridPoints());
    std::printf("work units: %zu (deduplicated)\n",
                plan.units.size());
    std::printf("lease chunks: %zu\n", plan.chunks.size());
    return 0;
}

int
cmdWorker(const Cli &cli)
{
    SweepSpec spec;
    if (!loadSpec(cli, spec))
        return 1;
    SweepWorkerOptions opts;
    opts.storeDir = cli.storeDir;
    opts.chunkOverride = cli.chunk;
    opts.log = &std::cerr;
    const SweepWorkerOutcome outcome = runSweepWorker(spec, opts);
    std::fprintf(stderr,
                 "sweep-worker: units=%zu executed=%zu warm=%zu "
                 "peer-skips=%zu\n",
                 outcome.units, outcome.executed, outcome.warm,
                 outcome.peerSkips);
    if (!outcome.complete)
        return 1;
    return enforceExpectWarm();
}

int
cmdRun(const Cli &cli, const char *argv0)
{
    SweepSpec spec;
    if (!loadSpec(cli, spec))
        return 1;
    SweepRunOptions opts;
    opts.storeDir = cli.storeDir;
    opts.chunkOverride = cli.chunk;
    opts.workers = cli.workers;
    opts.selfExe = argv0;
    opts.specPath = cli.specPath;
    if (!runSweepCoordinator(spec, opts, std::cerr))
        return 1;
    return enforceExpectWarm();
}

int
cmdRender(const Cli &cli)
{
    SweepSpec spec;
    if (!loadSpec(cli, spec))
        return 1;
    std::string error;
    if (!renderSweepFromStore(std::cout, spec, cli.storeDir, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    if (!parseCli(argc, argv, cli))
        return usage();

    // --trace-dir is a convenience for BSISA_TRACE_DIR: it applies to
    // this process and is inherited by spawned workers.
    if (!cli.traceDir.empty()) {
#if defined(__unix__) || defined(__APPLE__)
        ::setenv("BSISA_TRACE_DIR", cli.traceDir.c_str(), 1);
#else
        static std::string assign;
        assign = "BSISA_TRACE_DIR=" + cli.traceDir;
        ::putenv(assign.data());
#endif
    }

    const bool needsStore = cli.command == "run" ||
                            cli.command == "worker" ||
                            cli.command == "render" ||
                            cli.command == "status" ||
                            cli.command == "compact";
    if (needsStore && cli.storeDir.empty()) {
        std::fprintf(stderr, "error: %s needs --store DIR\n",
                     cli.command.c_str());
        return 2;
    }

    if (cli.command == "plan")
        return cmdPlan(cli);
    if (cli.command == "worker")
        return cmdWorker(cli);
    if (cli.command == "run")
        return cmdRun(cli, argv[0]);
    if (cli.command == "render")
        return cmdRender(cli);
    if (cli.command == "status") {
        printSweepStatus(std::cout, cli.storeDir);
        return 0;
    }
    if (cli.command == "compact") {
        ResultStore store(cli.storeDir);
        if (!store.compact()) {
            std::fprintf(stderr, "error: compaction failed\n");
            return 1;
        }
        return 0;
    }
    return usage();
}
