/**
 * @file
 * bsisa-fuzz — differential fuzzing driver.
 *
 *   bsisa-fuzz [--seed N] [--runs N] [--oracle interp|enlarge|models|lockstep|ooo|compile|all]
 *              [--profile NAME] [--minimize] [--corpus DIR]
 *              [--inject skip-fault-suppression|flip-fault-polarity]
 *              [--max-ops N] [--max-failures N] [--expect-failure]
 *       Generate random BlockC programs and check them through the
 *       differential oracles; failing programs are (optionally)
 *       shrunk and written to the corpus directory as .blockc +
 *       .expect reproducer pairs.
 *
 *   bsisa-fuzz --emit DIR [--seed N] [--runs N] [--profile NAME]
 *       Corpus seeding: generate programs (no oracle run beyond the
 *       conventional reference execution) and write them with their
 *       expected-state sidecars into DIR.
 *
 *   bsisa-fuzz --replay DIR [--oracle ...]
 *       Replay every corpus entry in DIR through the oracles and
 *       against its sidecar.
 *
 * Exit status: 0 when the run is clean, 1 on failures — inverted by
 * --expect-failure, which is how CI proves the harness catches a
 * deliberately injected enlargement bug.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "frontend/compile.hh"
#include "fuzz/corpus.hh"
#include "fuzz/gen.hh"
#include "fuzz/harness.hh"
#include "fuzz/oracle.hh"

using namespace bsisa;
using namespace bsisa::fuzz;

namespace
{

int
usage()
{
    std::cerr <<
        "usage: bsisa-fuzz [options]\n"
        "  --seed N         first seed (default 1)\n"
        "  --runs N         number of programs (default 100)\n"
        "  --oracle LIST    interp|enlarge|models|lockstep|ooo|compile|all\n"
        "                   (default all)\n"
        "  --profile NAME   one generator profile (default: rotate";
    for (const std::string &name : genProfileNames())
        std::cerr << " " << name;
    std::cerr << ")\n"
        "  --minimize       shrink failing programs\n"
        "  --corpus DIR     write reproducers here (default fuzz-out)\n"
        "  --inject BUG     skip-fault-suppression|flip-fault-polarity\n"
        "  --max-ops N      op budget per execution (default 1M)\n"
        "  --max-failures N stop after N failures (default 1; 0 = all)\n"
        "  --expect-failure invert exit status (harness self-test)\n"
        "  --emit DIR       generate corpus entries into DIR\n"
        "  --replay DIR     replay corpus entries in DIR\n";
    return 2;
}

struct Args
{
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

    std::uint64_t
    getU64(const std::string &name, std::uint64_t def) const
    {
        const std::string v = get(name, "");
        return v.empty() ? def : std::stoull(v);
    }
};

/** Corpus seeding: write (seed, profile) programs + sidecars. */
int
cmdEmit(const Args &args, const FuzzOptions &options,
        const std::string &dir)
{
    const std::vector<std::string> profiles =
        options.profile.empty()
            ? genProfileNames()
            : std::vector<std::string>{options.profile};
    unsigned written = 0;
    for (unsigned i = 0; i < options.runs; ++i) {
        const std::uint64_t seed = options.seed + i;
        const std::string &profile = profiles[i % profiles.size()];
        const FuzzProgram program =
            generateProgram(seed, genProfile(profile));
        const std::string source = program.render();

        const CompileResult compiled = compileBlockC(source);
        if (!compiled.ok) {
            std::cerr << "bsisa-fuzz: seed " << seed
                      << " does not compile:\n" << compiled.errors;
            return 1;
        }
        const Expectation e =
            computeExpectation(compiled.module, options.oracle.limits);
        if (!e.halted) {
            std::cerr << "bsisa-fuzz: seed " << seed
                      << " did not halt; not emitting\n";
            return 1;
        }
        const std::string name =
            profile + "-seed" + std::to_string(seed);
        if (!writeCorpusEntry(dir, name, source, e)) {
            std::cerr << "bsisa-fuzz: cannot write " << dir << "/"
                      << name << "\n";
            return 1;
        }
        ++written;
    }
    std::cout << "bsisa-fuzz: emitted " << written << " entries to "
              << dir << "\n";
    (void)args;
    return 0;
}

/** Replay mode: every corpus entry through sidecar + oracles. */
int
cmdReplay(const FuzzOptions &options, const std::string &dir)
{
    const std::vector<std::string> names = listCorpus(dir);
    if (names.empty()) {
        std::cerr << "bsisa-fuzz: no corpus entries in " << dir << "\n";
        return 1;
    }
    unsigned failures = 0;
    for (const std::string &name : names) {
        std::string source;
        Expectation want;
        if (!readCorpusEntry(dir, name, source, want)) {
            std::cerr << "bsisa-fuzz: " << name << ": unreadable\n";
            ++failures;
            continue;
        }
        const CompileResult compiled = compileBlockC(source);
        if (!compiled.ok) {
            std::cerr << "bsisa-fuzz: " << name << ": compile error\n";
            ++failures;
            continue;
        }
        const Expectation got =
            computeExpectation(compiled.module, options.oracle.limits);
        if (got.halted != want.halted || got.exit != want.exit ||
            got.dataChecksum != want.dataChecksum ||
            got.memChecksum != want.memChecksum ||
            got.dynOps != want.dynOps ||
            got.dynBlocks != want.dynBlocks) {
            std::cerr << "bsisa-fuzz: " << name
                      << ": sidecar mismatch\n";
            ++failures;
            continue;
        }
        const OracleResult r =
            checkProgram(source, options.mask, options.oracle);
        if (!r.ok) {
            std::cerr << "bsisa-fuzz: " << name << ": [" << r.oracle
                      << "] " << r.detail << "\n";
            ++failures;
        }
    }
    std::cout << "bsisa-fuzz: replayed " << names.size()
              << " entries, " << failures << " failures\n";
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> valueOptions = {
        "--seed", "--runs", "--oracle", "--profile", "--corpus",
        "--inject", "--max-ops", "--max-failures", "--emit",
        "--replay",
    };
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            return usage();
        const bool takesValue =
            std::find(valueOptions.begin(), valueOptions.end(), arg) !=
            valueOptions.end();
        std::string value;
        if (takesValue) {
            if (i + 1 >= argc)
                return usage();
            value = argv[++i];
        }
        args.options.emplace_back(arg, value);
    }

    FuzzOptions options;
    options.seed = args.getU64("--seed", 1);
    options.runs = unsigned(args.getU64("--runs", 100));
    options.minimize = args.has("--minimize");
    options.profile = args.get("--profile", "");
    options.reproDir = args.get("--corpus", "fuzz-out");
    options.maxFailures = unsigned(args.getU64("--max-failures", 1));
    options.oracle.limits.maxOps =
        args.getU64("--max-ops", 1ull << 20);

    options.mask = parseOracleMask(args.get("--oracle", "all"));
    if (!options.mask) {
        std::cerr << "bsisa-fuzz: bad --oracle value\n";
        return usage();
    }
    const std::string inject = args.get("--inject", "");
    if (!inject.empty()) {
        options.oracle.inject = parseInjectedBug(inject);
        if (options.oracle.inject == InjectedBug::None) {
            std::cerr << "bsisa-fuzz: unknown --inject '" << inject
                      << "'\n";
            return usage();
        }
    }
    if (!options.profile.empty()) {
        const auto &names = genProfileNames();
        if (std::find(names.begin(), names.end(), options.profile) ==
            names.end()) {
            std::cerr << "bsisa-fuzz: unknown --profile '"
                      << options.profile << "'\n";
            return usage();
        }
    }

    if (args.has("--emit"))
        return cmdEmit(args, options, args.get("--emit", ""));
    if (args.has("--replay"))
        return cmdReplay(options, args.get("--replay", ""));

    const FuzzReport report = fuzzRun(options, std::cout);
    if (args.has("--expect-failure")) {
        if (report.ok()) {
            std::cout << "bsisa-fuzz: expected a failure, found none\n";
            return 1;
        }
        const FuzzFailure &f = report.failures.front();
        std::cout << "bsisa-fuzz: injected bug caught: seed " << f.seed
                  << " [" << f.oracle << "], reproducer is "
                  << f.linesAfter << " lines\n";
        return 0;
    }
    return report.ok() ? 0 : 1;
}
