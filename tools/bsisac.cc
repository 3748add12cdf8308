/**
 * @file
 * bsisac — the block-structured ISA toolchain driver.
 *
 * A small command-line compiler/simulator front door over the library,
 * in the spirit of a cc(1)-style driver:
 *
 *   bsisac compile prog.bc [-o out.ir] [--no-opt] [--no-ra]
 *       Compile BlockC to the textual IR form.
 *   bsisac run prog.bc|prog.ir [--max-ops N]
 *       Compile (or load IR) and execute functionally.
 *   bsisac sim prog.bc|prog.ir [--max-ops N] [--icache KB]
 *              [--perfect-bp] [--stats]
 *       Cycle-simulate on BOTH machines and print the comparison.
 *   bsisac enlarge prog.bc|prog.ir [--max-ops-per-block N]
 *              [--max-faults N]
 *       Run block enlargement and dump every atomic block.
 *
 * Inputs ending in .ir are parsed as the textual IR (see
 * src/ir/textform.hh); anything else is treated as BlockC source.
 * An option another subcommand takes, a repeated or valueless option
 * and a second input are usage errors (exit 2); a flag value its
 * config key rejects exits 1.
 */

#include <fstream>
#include <iomanip>
#include <initializer_list>
#include <iostream>
#include <span>
#include <string>
#include <utility>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "frontend/compile.hh"
#include "ir/textform.hh"
#include "ir/verifier.hh"
#include "sim/interp.hh"
#include "support/parse.hh"
#include "support/table.hh"

using namespace bsisa;

namespace
{

/** Print the usage, then @p error when there is one; exit status 2. */
int
usage(const std::string &error = "")
{
    std::cerr <<
        "usage: bsisac <command> <input> [options]\n"
        "  compile <in.bc> [-o out.ir] [--no-opt] [--no-ra]\n"
        "  run     <in.bc|in.ir> [--max-ops N]\n"
        "  sim     <in.bc|in.ir> [--max-ops N] [--icache KB]"
        " [--perfect-bp] [--stats]\n"
        "  enlarge <in.bc|in.ir> [--max-ops-per-block N]"
        " [--max-faults N]\n";
    if (!error.empty())
        std::cerr << "bsisac: " << error << "\n";
    return 2;
}

/** Load a module from BlockC source or textual IR. */
bool
loadModule(const std::string &path, const CompileOptions &options,
           Module &out)
{
    std::string text;
    if (!readWholeFile(path, text)) {
        std::cerr << "bsisac: cannot read '" << path << "'\n";
        return false;
    }
    if (path.ends_with(".ir")) {
        ParseModuleResult parsed = parseModuleText(text);
        if (!parsed.ok) {
            std::cerr << "bsisac: " << path << ": " << parsed.error
                      << "\n";
            return false;
        }
        out = std::move(parsed.module);
        const auto problems = verifyModule(out);
        if (!problems.empty()) {
            std::cerr << "bsisac: " << path << ": " << problems.front()
                      << "\n";
            return false;
        }
        return true;
    }
    CompileResult result = compileBlockC(text, options);
    if (!result.ok) {
        std::cerr << "bsisac: compilation of '" << path
                  << "' failed:\n"
                  << result.errors;
        return false;
    }
    out = std::move(result.module);
    return true;
}

/** An option that sets a config key, and the key's value when the
 *  option is absent ("": the RunConfig default). */
struct ConfigFlag
{
    const char *option;
    const char *key;
    const char *fallback = "";
};

/** Apply @p flags through the config-key rows and the geometry rules,
 *  so a bad value is a "<key>: expected ..." error rather than an
 *  exception or a panic. */
bool
applyFlags(const CommandLine &args, std::initializer_list<ConfigFlag> flags,
           RunConfig &config)
{
    std::string error;
    for (const ConfigFlag &flag : flags) {
        if ((args.has(flag.option) || *flag.fallback) &&
            !applyConfigKey(config, flag.key,
                            std::string(args.get(flag.option, flag.fallback)),
                            error))
            break;
    }
    if (error.empty() && checkConfigGeometry(config, error))
        return true;
    std::cerr << "bsisac: " << error << "\n";
    return false;
}

/** Load the input of a command that builds the machines and apply
 *  @p flags; then split blocks longer than the enlarger's cap, as the
 *  compiler does for BlockC, so textual IR holds only blocks both
 *  machines can fetch. */
bool
loadForMachines(const CommandLine &args,
                std::initializer_list<ConfigFlag> flags, Module &module,
                RunConfig &config)
{
    if (!loadModule(args.positional[0], CompileOptions{}, module) ||
        !applyFlags(args, flags, config))
        return false;
    splitOversizedBlocks(module, config.enlarge.maxOps);
    return true;
}

/** The op budget of `run` and `sim`. */
constexpr ConfigFlag maxOpsFlag{"--max-ops", "max_ops", "1000000000"};

int
cmdCompile(const CommandLine &args)
{
    CompileOptions options;
    options.optimize = !args.has("--no-opt");
    options.allocate = !args.has("--no-ra");
    Module module;
    if (!loadModule(args.positional[0], options, module))
        return 1;
    const std::string out_path(args.get("-o"));
    if (out_path.empty()) {
        std::cout << moduleToText(module);
    } else {
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "bsisac: cannot write '" << out_path << "'\n";
            return 1;
        }
        out << moduleToText(module);
        std::cout << "wrote " << out_path << " ("
                  << module.numOps() << " ops, "
                  << module.functions.size() << " functions)\n";
    }
    return 0;
}

int
cmdRun(const CommandLine &args)
{
    Module module;
    if (!loadModule(args.positional[0], CompileOptions{}, module))
        return 1;
    RunConfig config;
    if (!applyFlags(args, {maxOpsFlag}, config))
        return 1;
    Interp interp(module, config.limits);
    interp.run();
    std::cout << "exit value: " << interp.exitValue() << "\n"
              << "dynamic ops: " << interp.dynOps() << "\n"
              << "dynamic blocks: " << interp.dynBlocks() << "\n"
              << (interp.halted() ? "halted normally\n"
                                  : "stopped at the op budget\n");
    return 0;
}

int
cmdSim(const CommandLine &args)
{
    Module module;
    RunConfig config;
    if (!loadForMachines(args,
                         {maxOpsFlag,
                          {"--icache", "icache_kb"},
                          {"--perfect-bp", "perfect_prediction"}},
                         module, config))
        return 1;
    // The timing models decode architectural registers only; `run`
    // and `enlarge` accept virtual registers.
    for (const Function &fn : module.functions) {
        if (fn.numVirtualRegs > numArchRegs) {
            std::cerr << "bsisac: " << args.positional[0]
                      << ": function '" << fn.name << "' has vregs="
                      << fn.numVirtualRegs
                      << "; timing simulation needs register-allocated"
                         " IR (vregs="
                      << numArchRegs << ")\n";
            return 1;
        }
    }

    const PairResult r = runPair(module, config);

    Table t({"metric", "conventional", "block-structured"});
    t.addRow({"cycles", Table::fmtSep(r.conv.cycles),
              Table::fmtSep(r.bsa.cycles)});
    t.addRow({"IPC", Table::fmt(r.conv.ipc(), 2),
              Table::fmt(r.bsa.ipc(), 2)});
    t.addRow({"avg block size", Table::fmt(r.conv.avgBlockSize(), 2),
              Table::fmt(r.bsa.avgBlockSize(), 2)});
    t.addRow({"branch accuracy",
              Table::fmt(100.0 * r.conv.branchAccuracy(), 1) + "%",
              Table::fmt(100.0 * r.bsa.branchAccuracy(), 1) + "%"});
    t.addRow({"icache miss rate",
              Table::fmt(100.0 * r.conv.icache.missRate(), 2) + "%",
              Table::fmt(100.0 * r.bsa.icache.missRate(), 2) + "%"});
    t.addRow({"code bytes", Table::fmtSep(r.convCodeBytes),
              Table::fmtSep(r.bsaCodeBytes)});
    t.print(std::cout);
    std::cout << "reduction: " << Table::fmt(100.0 * r.reduction(), 1)
              << "%\n";

    if (args.has("--stats")) {
        const std::pair<const char *, double> stats[] = {
            {"conv.cycles", double(r.conv.cycles)},
            {"conv.retired_ops", double(r.conv.retiredOps)},
            {"conv.mispredicts", double(r.conv.mispredicts)},
            {"conv.wrong_path_ops", double(r.conv.wrongPathOps)},
            {"conv.icache_misses", double(r.conv.icache.misses)},
            {"conv.dcache_misses", double(r.conv.dcache.misses)},
            {"bsa.cycles", double(r.bsa.cycles)},
            {"bsa.retired_ops", double(r.bsa.retiredOps)},
            {"bsa.trap_mispredicts", double(r.bsa.trapMispredicts)},
            {"bsa.fault_mispredicts", double(r.bsa.faultMispredicts)},
            {"bsa.cascade_hops", double(r.bsa.cascadeHops)},
            {"bsa.wrong_path_ops", double(r.bsa.wrongPathOps)},
            {"bsa.icache_misses", double(r.bsa.icache.misses)},
            {"bsa.dcache_misses", double(r.bsa.dcache.misses)},
            {"conv.stall_redirect", double(r.conv.stallRedirect)},
            {"conv.stall_window", double(r.conv.stallWindow)},
            {"conv.stall_icache", double(r.conv.stallIcache)},
            {"bsa.stall_redirect", double(r.bsa.stallRedirect)},
            {"bsa.stall_window", double(r.bsa.stallWindow)},
            {"bsa.stall_icache", double(r.bsa.stallIcache)},
            {"enlarge.atomic_blocks", double(r.enlarge.atomicBlocks)},
            {"enlarge.expansion", r.enlarge.expansion()},
        };
        std::cout << "\n";
        for (const auto &[name, value] : stats)
            std::cout << std::left << std::setw(40) << name << " "
                      << std::setw(16) << value << "\n";
    }
    return 0;
}

int
cmdEnlarge(const CommandLine &args)
{
    Module module;
    RunConfig config;
    if (!loadForMachines(args,
                         {{"--max-ops-per-block", "enlarge_max_ops"},
                          {"--max-faults", "enlarge_max_faults"}},
                         module, config))
        return 1;
    EnlargeStats stats;
    BsaModule bsa =
        enlargeModule(module, config.enlarge, nullptr, &stats);
    layoutBsaModule(bsa);
    std::cout << "atomic blocks: " << stats.atomicBlocks
              << ", heads: " << stats.heads
              << ", trap->fault: " << stats.mergedEdges
              << ", jumps deleted: " << stats.thruMerges
              << ", expansion: " << stats.expansion() << "x\n\n";
    for (const AtomicBlock &blk : bsa.blocks) {
        std::cout << "AB" << blk.id << " f" << blk.func << " @0x"
                  << std::hex << blk.addr << std::dec << " bbs:";
        for (BlockId b : blk.bbs)
            std::cout << " B" << b;
        std::cout << " (succBits " << unsigned(blk.succBits) << ")\n";
        for (const Operation &op : blk.ops)
            std::cout << "    " << op.toString() << "\n";
    }
    return 0;
}

constexpr OptionSpec compileOptions[] = {
    {"-o", true}, {"--no-opt"}, {"--no-ra"}};
constexpr OptionSpec runOptions[] = {{"--max-ops", true}};
constexpr OptionSpec simOptions[] = {
    {"--max-ops", true}, {"--icache", true}, {"--perfect-bp"},
    {"--stats"}};
constexpr OptionSpec enlargeOptions[] = {
    {"--max-ops-per-block", true}, {"--max-faults", true}};

/** A subcommand: its name, the options it takes, and its body. */
struct Command
{
    std::string_view name;
    std::span<const OptionSpec> options;
    int (*run)(const CommandLine &);
};

constexpr Command commands[] = {
    {"compile", compileOptions, cmdCompile},
    {"run", runOptions, cmdRun},
    {"sim", simOptions, cmdSim},
    {"enlarge", enlargeOptions, cmdEnlarge},
};

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string_view name = argv[1];
    for (const Command &command : commands) {
        if (command.name != name)
            continue;
        CommandLine args;
        std::string error;
        if (!parseCommandLine({argv + 2, argv + argc}, command.options,
                              1, args, error))
            return usage(std::string(name) + ": " + error);
        if (args.positional.empty())
            return usage(std::string(name) + ": missing input file");
        return command.run(args);
    }
    return usage("unknown command '" + std::string(name) + "'");
}
