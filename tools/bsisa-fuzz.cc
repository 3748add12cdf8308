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
 * deliberately injected enlargement bug.  A bad option value (a count
 * that is not a decimal in range, --runs 0, an unknown oracle) exits
 * 1; an unknown, repeated or valueless option exits 2 after the usage.
 */

#include <iostream>
#include <string>
#include <vector>

#include "frontend/compile.hh"
#include "fuzz/corpus.hh"
#include "fuzz/gen.hh"
#include "fuzz/harness.hh"
#include "fuzz/oracle.hh"
#include "support/parse.hh"

using namespace bsisa;
using namespace bsisa::fuzz;

namespace
{

/** Print the usage, then @p error when there is one; exit status 2. */
int
usage(const std::string &error)
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
    std::cerr << "bsisa-fuzz: " << error << "\n";
    return 2;
}

/** Corpus seeding: write (seed, profile) programs + sidecars. */
int
cmdEmit(const FuzzOptions &options, const std::string &dir)
{
    const std::vector<std::string> profiles =
        options.profile.empty()
            ? genProfileNames()
            : std::vector<std::string>{options.profile};
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
    }
    std::cout << "bsisa-fuzz: emitted " << options.runs << " entries to "
              << dir << "\n";
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
        if (got != want) {
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

constexpr OptionSpec optionTable[] = {
    {"--seed", true},      {"--runs", true},    {"--oracle", true},
    {"--profile", true},   {"--minimize"},      {"--corpus", true},
    {"--inject", true},    {"--max-ops", true}, {"--max-failures", true},
    {"--expect-failure"},  {"--emit", true},    {"--replay", true},
};

} // namespace

int
main(int argc, char **argv)
{
    CommandLine args;
    std::string error;
    if (!parseCommandLine({argv + 1, argv + argc}, optionTable, 0, args,
                          error))
        return usage(error);

    FuzzOptions options;
    options.minimize = args.has("--minimize");
    options.profile = args.get("--profile");
    options.reproDir = args.get("--corpus", "fuzz-out");
    options.oracle.limits.maxOps = 1ull << 20;
    if (!args.number("--seed", options.seed, error) ||
        !args.number("--runs", options.runs, error, 1u) ||
        !args.number("--max-failures", options.maxFailures, error) ||
        !args.number("--max-ops", options.oracle.limits.maxOps, error)) {
        std::cerr << "bsisa-fuzz: " << error << "\n";
        return 1;
    }

    const std::string oracle(args.get("--oracle", "all"));
    options.mask = parseOracleMask(oracle);
    if (!options.mask) {
        std::cerr << "bsisa-fuzz: unknown --oracle '" << oracle << "'\n";
        return 1;
    }
    const std::string inject(args.get("--inject"));
    if (!inject.empty()) {
        options.oracle.inject = parseInjectedBug(inject);
        if (options.oracle.inject == InjectedBug::None) {
            std::cerr << "bsisa-fuzz: unknown --inject '" << inject
                      << "'\n";
            return 1;
        }
    }
    if (!options.profile.empty())
        genProfile(options.profile);  // exits 1 on an unknown name

    if (args.has("--emit"))
        return cmdEmit(options, std::string(args.get("--emit")));
    if (args.has("--replay"))
        return cmdReplay(options, std::string(args.get("--replay")));

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
