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
 */

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "exp/spec.hh"
#include "frontend/compile.hh"
#include "ir/printer.hh"
#include "ir/textform.hh"
#include "ir/verifier.hh"
#include "sim/interp.hh"
#include "support/table.hh"

using namespace bsisa;

namespace
{

int
usage()
{
    std::cerr <<
        "usage: bsisac <command> <input> [options]\n"
        "  compile <in.bc> [-o out.ir] [--no-opt] [--no-ra]\n"
        "  run     <in.bc|in.ir> [--max-ops N]\n"
        "  sim     <in.bc|in.ir> [--max-ops N] [--icache KB]"
        " [--perfect-bp] [--stats]\n"
        "  enlarge <in.bc|in.ir> [--max-ops-per-block N]"
        " [--max-faults N]\n";
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** Load a module from BlockC source or textual IR. */
bool
loadModule(const std::string &path, const CompileOptions &options,
           Module &out)
{
    std::string text;
    if (!readFile(path, text)) {
        std::cerr << "bsisac: cannot read '" << path << "'\n";
        return false;
    }
    if (endsWith(path, ".ir")) {
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

/** Pull "--flag value" / "--flag" style options out of argv. */
struct Args
{
    std::vector<std::string> positional;
    std::vector<std::pair<std::string, std::string>> options;

    bool
    has(const std::string &name) const
    {
        for (const auto &[key, value] : options)
            if (key == name)
                return true;
        return false;
    }

    std::string
    get(const std::string &name, const std::string &def) const
    {
        for (const auto &[key, value] : options)
            if (key == name)
                return value;
        return def;
    }
};

/** A switch (an option not in @p valueOptions) has the value
 *  "true". */
Args
parseArgs(int argc, char **argv, int first,
          const std::vector<std::string> &valueOptions)
{
    Args args;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0 || arg == "-o") {
            const bool takes_value =
                std::find(valueOptions.begin(), valueOptions.end(),
                          arg) != valueOptions.end();
            std::string value = takes_value ? "" : "true";
            if (takes_value && i + 1 < argc)
                value = argv[++i];
            args.options.emplace_back(arg, value);
        } else {
            args.positional.push_back(arg);
        }
    }
    return args;
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
applyFlags(const Args &args, std::initializer_list<ConfigFlag> flags,
           RunConfig &config)
{
    std::string error;
    for (const ConfigFlag &flag : flags) {
        if ((args.has(flag.option) || *flag.fallback) &&
            !applyConfigKey(config, flag.key,
                            args.get(flag.option, flag.fallback), error))
            break;
    }
    if (error.empty() && checkConfigGeometry(config, error))
        return true;
    std::cerr << "bsisac: " << error << "\n";
    return false;
}

/** The op budget of `run` and `sim`. */
constexpr ConfigFlag maxOpsFlag{"--max-ops", "max_ops", "1000000000"};

int
cmdCompile(const Args &args)
{
    CompileOptions options;
    options.optimize = !args.has("--no-opt");
    options.allocate = !args.has("--no-ra");
    Module module;
    if (!loadModule(args.positional[0], options, module))
        return 1;
    const std::string out_path = args.get("-o", "");
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
cmdRun(const Args &args)
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
cmdSim(const Args &args)
{
    Module module;
    if (!loadModule(args.positional[0], CompileOptions{}, module))
        return 1;

    RunConfig config;
    if (!applyFlags(args,
                    {maxOpsFlag,
                     {"--icache", "icache_kb"},
                     {"--perfect-bp", "perfect_prediction"}},
                    config))
        return 1;

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
cmdEnlarge(const Args &args)
{
    Module module;
    if (!loadModule(args.positional[0], CompileOptions{}, module))
        return 1;
    RunConfig config;
    if (!applyFlags(args,
                    {{"--max-ops-per-block", "enlarge_max_ops"},
                     {"--max-faults", "enlarge_max_faults"}},
                    config))
        return 1;
    splitOversizedBlocks(module, config.enlarge.maxOps);
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    const Args args = parseArgs(
        argc, argv, 2,
        {"-o", "--max-ops", "--icache", "--max-ops-per-block",
         "--max-faults"});
    if (args.positional.empty())
        return usage();

    if (command == "compile")
        return cmdCompile(args);
    if (command == "run")
        return cmdRun(args);
    if (command == "sim")
        return cmdSim(args);
    if (command == "enlarge")
        return cmdEnlarge(args);
    return usage();
}
