/**
 * @file
 * Sweep-service CLI.
 *
 * Usage:
 *   bsisa-sweep run <spec> --store DIR [--trace-dir DIR]
 *       Run the sweep in this process (BSISA_JOBS threads), resuming
 *       whatever an earlier run left, then compact the store.  A store
 *       has one writer: a run on a store whose writer lock another
 *       process holds fails, naming that writer's pid.  The lock is
 *       the kernel's, so a writer that died holds nothing.
 *   bsisa-sweep plan <spec>
 *       Print the plan: spec digest, benchmarks, grid points and work
 *       units (no simulation).
 *   bsisa-sweep render <spec> --store DIR
 *       Render the spec's figure from stored results, byte-identical
 *       to the monolithic figure drivers.
 *   bsisa-sweep status --store DIR [--trace-dir DIR]
 *       Store health: records, torn tails, the writer lock's holder,
 *       plan markers, and the trace-store listing when one is
 *       configured.  A missing DIR is an error.
 *   bsisa-sweep compact --store DIR
 *       Fold the log into a deterministic snapshot (takes the writer
 *       lock).
 *
 * Each subcommand takes only the options listed for it.  Any other
 * option or subcommand, a repeated or valueless option or a second
 * spec prints the usage and exits 2 before anything runs.
 *
 * Exit status: 0 on success; with BSISA_EXPECT_WARM set, `run`
 * additionally fails if any live functional execution happened (the
 * warm-resweep proof, same contract as the bench binaries).
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>

#include "exp/plan.hh"
#include "exp/result_store.hh"
#include "exp/service.hh"
#include "exp/spec.hh"
#include "sim/interp.hh"
#include "support/env.hh"
#include "support/parse.hh"

using namespace bsisa;

namespace
{

/** Print the usage, then @p error when there is one; exit status 2. */
int
usage(const std::string &error = "")
{
    std::fprintf(
        stderr,
        "usage: bsisa-sweep run <spec> --store DIR [--trace-dir DIR]\n"
        "       bsisa-sweep plan <spec>\n"
        "       bsisa-sweep render <spec> --store DIR\n"
        "       bsisa-sweep status --store DIR [--trace-dir DIR]\n"
        "       bsisa-sweep compact --store DIR\n");
    if (!error.empty())
        std::fprintf(stderr, "bsisa-sweep: %s\n", error.c_str());
    return 2;
}

/** One subcommand's arguments, parsed, and its spec, loaded. */
struct Cli
{
    SweepSpec spec;
    std::string storeDir;
};

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
    SweepPlan plan;
    std::string error;
    if (!buildPlan(cli.spec, 0, plan, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::printf("spec: %s\n", cli.spec.name.c_str());
    std::printf("digest: %016llx\n",
                static_cast<unsigned long long>(plan.specDigest));
    std::printf("benchmarks: %zu\n", plan.benches.size());
    std::printf("grid points: %zu\n", plan.gridPoints());
    std::printf("work units: %zu (deduplicated)\n",
                plan.units.size());
    return 0;
}

int
cmdRun(const Cli &cli)
{
    if (!runSweepCoordinator(cli.spec, {cli.storeDir}, std::cerr))
        return 1;
    return enforceExpectWarm();
}

int
cmdRender(const Cli &cli)
{
    std::string error;
    if (!renderSweepFromStore(std::cout, cli.spec, cli.storeDir, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    return 0;
}

int
cmdStatus(const Cli &cli)
{
    if (!printSweepStatus(std::cout, cli.storeDir)) {
        std::fprintf(stderr, "error: no results store at %s\n",
                     cli.storeDir.c_str());
        return 1;
    }
    return 0;
}

int
cmdCompact(const Cli &cli)
{
    ResultStore store(cli.storeDir);
    std::string error;
    if (!store.lockWriter(error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    if (!store.compact()) {
        std::fprintf(stderr, "error: compaction failed\n");
        return 1;
    }
    return 0;
}

constexpr OptionSpec storeOptions[] = {{"--store", true}};
constexpr OptionSpec storeAndTraceOptions[] = {
    {"--store", true}, {"--trace-dir", true}};

/** A subcommand: its name, its options, whether it reads a spec, and
 *  its body. */
struct Command
{
    std::string_view name;
    std::span<const OptionSpec> options;
    bool takesSpec;
    int (*run)(const Cli &);
};

constexpr Command commands[] = {
    {"run", storeAndTraceOptions, true, cmdRun},
    {"plan", {}, true, cmdPlan},
    {"render", storeOptions, true, cmdRender},
    {"status", storeAndTraceOptions, false, cmdStatus},
    {"compact", storeOptions, false, cmdCompact},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string_view name = argv[1];
    const Command *command = nullptr;
    for (const Command &c : commands)
        if (c.name == name)
            command = &c;
    if (!command)
        return usage("unknown command '" + std::string(name) + "'");

    CommandLine args;
    Cli cli;
    std::string error;
    if (!parseCommandLine({argv + 2, argv + argc}, command->options,
                          command->takesSpec ? 1 : 0, args, error))
        return usage(std::string(name) + ": " + error);
    cli.storeDir = args.get("--store");

    // --trace-dir is a convenience for BSISA_TRACE_DIR.
    const std::string traceDir(args.get("--trace-dir"));
    if (!traceDir.empty()) {
#if defined(__unix__) || defined(__APPLE__)
        ::setenv("BSISA_TRACE_DIR", traceDir.c_str(), 1);
#else
        static std::string assign;
        assign = "BSISA_TRACE_DIR=" + traceDir;
        ::putenv(assign.data());
#endif
    }

    if (command->name != "plan" && cli.storeDir.empty()) {
        std::fprintf(stderr, "error: %s needs --store DIR\n", argv[1]);
        return 2;
    }
    if (command->takesSpec) {
        if (args.positional.empty()) {
            std::fprintf(stderr, "error: missing spec file\n");
            return 1;
        }
        if (!parseSweepSpecFile(args.positional[0], cli.spec, error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
    }
    return command->run(cli);
}
