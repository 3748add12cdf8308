/**
 * @file
 * Differential oracle implementation.
 *
 * Everything here is comparison plumbing: run the same program down
 * two execution paths that the codebase promises are equivalent, and
 * turn any disagreement into a precise OracleResult::detail string
 * (the shrinker's predicate re-runs the oracle, so failure text is
 * also the reproducer's label).
 */

#include "fuzz/oracle.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "codegen/layout.hh"
#include "core/enlarge.hh"
#include "exp/runner.hh"
#include "frontend/compile.hh"
#include "fuzz/corpus.hh"
#include "cache/trace_cache.hh"
#include "sim/bsa_interp.hh"
#include "sim/bsa_source.hh"
#include "sim/conv_source.hh"
#include "sim/ooo/ooo.hh"
#include "sim/trace.hh"
#include "sim/trace_store.hh"
#include "support/lockfile.hh"
#include "support/parallel.hh"

namespace bsisa
{
namespace fuzz
{

unsigned
parseOracleMask(const std::string &spec)
{
    unsigned mask = 0;
    std::stringstream ss(spec);
    std::string part;
    while (std::getline(ss, part, ',')) {
        if (part == "interp")
            mask |= oracleInterp;
        else if (part == "enlarge")
            mask |= oracleEnlarge;
        else if (part == "models")
            mask |= oracleModels;
        else if (part == "lockstep")
            mask |= oracleLockstep;
        else if (part == "ooo")
            mask |= oracleOoo;
        else if (part == "compile")
            mask |= oracleCompile;
        else if (part == "all")
            mask |= oracleAll;
        else
            return 0;
    }
    return mask;
}

InjectedBug
parseInjectedBug(const std::string &name)
{
    if (name == "skip-fault-suppression")
        return InjectedBug::SkipFaultSuppression;
    if (name == "flip-fault-polarity")
        return InjectedBug::FlipFaultPolarity;
    return InjectedBug::None;
}

namespace
{

OracleResult
fail(const char *oracle, const std::string &detail)
{
    OracleResult r;
    r.ok = false;
    r.oracle = oracle;
    r.detail = detail;
    return r;
}

/** Mutate an enlarged module the way a buggy compiler would. */
void
applyInjectedBug(BsaModule &bsa, InjectedBug bug)
{
    if (bug == InjectedBug::None)
        return;
    for (AtomicBlock &blk : bsa.blocks) {
        for (Operation &op : blk.ops) {
            if (op.op != Opcode::Fault)
                continue;
            if (bug == InjectedBug::SkipFaultSuppression)
                op = makeNop();
            else if (bug == InjectedBug::FlipFaultPolarity)
                op.imm = op.imm ? 0 : 1;
        }
        if (bug == InjectedBug::SkipFaultSuppression)
            blk.numFaults = 0;
    }
}

// --------------------------------------------------- interp oracle

OracleResult
checkInterp(const Module &module, const ExecTrace &trace,
            const Expectation &golden, const OracleOptions &options)
{
    // Live interpretation must produce the captured stream event for
    // event, including the committed-store address stream.
    Interp live(module, options.limits);
    BlockEvent ev;
    std::size_t i = 0;
    while (live.step(ev)) {
        if (i >= trace.eventCount) {
            return fail("interp",
                        "live stream longer than capture (event " +
                            std::to_string(i) + ")");
        }
        // The successor and the address count are derived from the
        // next event (or the tail), so this checks the derivation.
        const TraceEvent &te = trace.events[i];
        const bool same =
            te.func == ev.func && te.block == ev.block &&
            te.exit == ev.exit && te.taken == ev.taken &&
            trace.nextFunc(i) == ev.nextFunc &&
            trace.nextBlock(i) == ev.nextBlock &&
            trace.memCount(i) == ev.memCount;
        if (!same) {
            return fail("interp", "live/capture event mismatch at " +
                                      std::to_string(i));
        }
        for (std::uint32_t a = 0; a < ev.memCount; ++a) {
            if (trace.memAddrs[te.memBegin + a] != ev.memAddrs[a]) {
                return fail("interp",
                            "mem address stream mismatch at event " +
                                std::to_string(i));
            }
        }
        ++i;
    }
    if (i != trace.eventCount) {
        return fail("interp", "live stream shorter than capture: " +
                                  std::to_string(i) + " vs " +
                                  std::to_string(trace.eventCount));
    }
    if (live.dynOps() != trace.dynOps ||
        live.dynBlocks() != trace.dynBlocks) {
        return fail("interp", "dynamic op/block count drifted between "
                              "runs of the same program");
    }
    if (live.exitValue() != golden.exit ||
        live.memChecksum() != golden.memChecksum) {
        return fail("interp", "interpreter is nondeterministic: "
                              "exit/checksum differ across runs");
    }

    // Trace-store round trip: encode, reopen via mmap, bit-compare.
    TraceKey key;
    key.moduleDigest = moduleDigest(module);
    key.maxOps = options.limits.maxOps;
    key.maxBlocks = options.limits.maxBlocks;

    namespace fs = std::filesystem;
    fs::path dir = options.scratchDir.empty()
                       ? fs::temp_directory_path() /
                             ("bsisa-fuzz-" +
                              std::to_string(currentProcessId()))
                       : fs::path(options.scratchDir);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path path = dir / key.fileName();
    {
        const std::vector<std::uint8_t> bytes = encodeTrace(trace, key);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            return fail("interp", "could not write trace round-trip "
                                  "scratch file " + path.string());
        }
    }
    ExecTrace rt;
    const TraceOpenStatus status = openTraceFile(path.string(), key, rt);
    OracleResult result;
    if (status != TraceOpenStatus::Ok) {
        result = fail("interp",
                      std::string("trace round trip rejected: ") +
                          traceOpenStatusName(status));
    } else if (rt.eventCount != trace.eventCount ||
               rt.memAddrCount != trace.memAddrCount ||
               rt.dynOps != trace.dynOps ||
               rt.dynBlocks != trace.dynBlocks) {
        result = fail("interp", "trace round trip changed counts");
    } else {
        for (std::size_t e = 0; e < trace.eventCount && result.ok; ++e) {
            const TraceEvent &a = trace.events[e];
            const TraceEvent &b = rt.events[e];
            if (a.func != b.func || a.block != b.block ||
                trace.nextFunc(e) != rt.nextFunc(e) ||
                trace.nextBlock(e) != rt.nextBlock(e) ||
                a.memBegin != b.memBegin ||
                trace.memCount(e) != rt.memCount(e) ||
                a.exit != b.exit || a.taken != b.taken) {
                result = fail("interp",
                              "trace round trip changed event " +
                                  std::to_string(e));
            }
        }
        for (std::size_t a = 0; a < trace.memAddrCount && result.ok; ++a)
            if (trace.memAddrs[a] != rt.memAddrs[a])
                result = fail("interp", "trace round trip changed the "
                                        "address pool");
    }
    fs::remove(path, ec);
    return result;
}

// -------------------------------------------------- enlarge oracle

/** One point of the termination-condition matrix. */
struct EnlargeCase
{
    const char *name;
    EnlargeConfig cfg;
    bool useProfile = false;
    /** Re-split the module at this op count first (condition-1
     *  precondition when cfg.maxOps is below the compile-time split). */
    unsigned splitOps = 0;
};

std::vector<EnlargeCase>
enlargeMatrix()
{
    std::vector<EnlargeCase> cases;
    EnlargeConfig cfg;
    cases.push_back({"default", cfg, false, 0});

    cfg = {};
    cfg.maxFaults = 1;
    cases.push_back({"maxFaults=1", cfg, false, 0});

    cfg = {};
    cfg.maxFaults = 4;
    cases.push_back({"maxFaults=4", cfg, false, 0});

    cfg = {};
    cfg.maxOps = 8;
    cases.push_back({"maxOps=8", cfg, false, 8});

    cfg = {};
    cfg.mergeAcrossBackEdges = true;
    cfg.enlargeLibraryFunctions = true;
    cases.push_back({"backedges+lib", cfg, false, 0});

    cfg = {};
    cfg.enabled = false;
    cases.push_back({"disabled", cfg, false, 0});

    cfg = {};
    cfg.minMergeBias = 0.8;
    cases.push_back({"minMergeBias=0.8", cfg, true, 0});
    return cases;
}

/** All-or-nothing: an op budget expiring inside an enlarged block
 *  must leave exactly the state of stopping at the same block
 *  boundary by block count. */
OracleResult
checkAllOrNothing(const BsaModule &bsa, std::uint64_t policySeed,
                  bool randomPolicy)
{
    auto makePolicy = [&] {
        return randomPolicy ? randomVariantPolicy(policySeed)
                            : firstVariantPolicy();
    };

    BsaInterp full(bsa, makePolicy());
    full.run();
    const std::uint64_t total =
        full.committedOps() + full.suppressedOps();
    if (total < 4)
        return {};

    for (const std::uint64_t budget : {total / 3, (2 * total) / 3}) {
        if (budget == 0)
            continue;
        Interp::Limits la;
        la.maxOps = budget;
        BsaInterp a(bsa, makePolicy(), la);
        a.run();
        if (!a.halted() &&
            a.committedOps() + a.suppressedOps() < budget) {
            return fail("enlarge",
                        "op budget " + std::to_string(budget) +
                            " stopped early without halting");
        }

        Interp::Limits lb;
        lb.maxBlocks = a.committedBlocks() + a.suppressedBlocks();
        BsaInterp b(bsa, makePolicy(), lb);
        b.run();
        const bool same =
            a.committedOps() == b.committedOps() &&
            a.suppressedOps() == b.suppressedOps() &&
            a.committedBlocks() == b.committedBlocks() &&
            a.suppressedBlocks() == b.suppressedBlocks() &&
            a.halted() == b.halted() &&
            a.exitValue() == b.exitValue() &&
            a.memChecksum() == b.memChecksum();
        if (!same) {
            return fail("enlarge",
                        "op budget " + std::to_string(budget) +
                            " is not all-or-nothing: state differs "
                            "from the equivalent block-count stop");
        }
    }
    return {};
}

OracleResult
checkEnlarge(const Module &module, const ExecTrace &trace,
             const Expectation &golden, const OracleOptions &options)
{
    const ProfileData profile = profileFromTrace(trace);

    for (const EnlargeCase &c : enlargeMatrix()) {
        // Condition 1 requires every source block to fit; re-split a
        // copy when the case shrinks the block size below the
        // compile-time split width.
        Module resplit;
        const Module *m = &module;
        if (c.splitOps) {
            resplit = module;
            splitOversizedBlocks(resplit, c.splitOps);
            m = &resplit;
        }
        const Expectation want =
            c.splitOps ? computeExpectation(*m, options.limits) : golden;
        if (c.splitOps && (want.exit != golden.exit ||
                           want.memChecksum != golden.memChecksum ||
                           want.halted != golden.halted)) {
            return fail("enlarge", std::string(c.name) +
                                       ": splitOversizedBlocks changed "
                                       "architectural state");
        }

        BsaModule bsa = enlargeModule(
            *m, c.cfg, c.useProfile ? &profile : nullptr);
        applyInjectedBug(bsa, options.inject);

        // Suppressed wrong-variant work inflates the BSA op count, so
        // give the budget headroom over the conventional run.
        Interp::Limits lim;
        lim.maxOps = options.limits.maxOps * 8;

        for (unsigned p = 0; p <= options.adversarialSeeds; ++p) {
            const bool random = p > 0;
            const std::uint64_t seed =
                0x5eedc0de00000000ULL + 7919 * p;
            VariantPolicy policy = random ? randomVariantPolicy(seed)
                                          : firstVariantPolicy();
            BsaInterp interp(bsa, std::move(policy), lim);
            interp.run();

            std::ostringstream tag;
            tag << c.name << "/"
                << (random ? "random" : "first")
                << (random ? std::to_string(p) : "");
            if (!interp.halted()) {
                return fail("enlarge",
                            tag.str() + ": BSA execution did not halt "
                            "(conventional run did)");
            }
            if (interp.exitValue() != want.exit) {
                return fail("enlarge",
                            tag.str() + ": exit value diverged: " +
                                std::to_string(interp.exitValue()) +
                                " vs " + std::to_string(want.exit));
            }
            if (interp.memChecksum() != want.memChecksum) {
                return fail("enlarge",
                            tag.str() + ": memory checksum diverged");
            }
            if (interp.committedOps() > want.dynOps) {
                return fail("enlarge",
                            tag.str() + ": committed more ops than "
                            "the conventional execution");
            }
            if (!c.cfg.enabled &&
                (interp.committedOps() != want.dynOps ||
                 interp.committedBlocks() != want.dynBlocks)) {
                return fail("enlarge",
                            tag.str() + ": degenerate enlargement "
                            "changed the dynamic op/block counts");
            }
        }

        if (std::string(c.name) == "default") {
            OracleResult r = checkAllOrNothing(bsa, 0, false);
            if (r.ok)
                r = checkAllOrNothing(bsa, 0x0bad5eed, true);
            if (!r.ok)
                return r;
        }
    }
    return {};
}

// --------------------------------------------------- models oracle

/** The invariants every SimResult must satisfy, any machine and any
 *  timing model; failures are reported under @p oracle. */
OracleResult
checkResultInvariants(const SimResult &r, const char *oracle,
                      const char *what)
{
    auto bad = [&](const std::string &msg) {
        return fail(oracle, std::string(what) + ": " + msg);
    };
    if (r.retiredUnits == 0 || r.cycles < r.retiredUnits)
        return bad("fewer cycles than retired units");
    if (r.retiredOps < r.retiredUnits)
        return bad("retired fewer ops than units");
    if (r.mispredicts > r.predictions)
        return bad("more mispredicts than predictions");
    if (r.mispredicts != r.trapMispredicts + r.faultMispredicts)
        return bad("mispredict breakdown does not sum");
    if (r.stallRedirect + r.stallWindow + r.stallIcache > r.cycles)
        return bad("stall cycles exceed total cycles");
    if (r.icache.misses > r.icache.accesses ||
        r.dcache.misses > r.dcache.accesses)
        return bad("cache misses exceed accesses");
    return {};
}

/** checkResultInvariants plus the abstract model's window bounds. */
OracleResult
checkSimInvariants(const SimResult &r, const MachineConfig &machine,
                   const char *what)
{
    auto bad = [&](const std::string &msg) {
        return fail("models", std::string(what) + ": " + msg);
    };
    if (r.peakWindowUnits > machine.windowUnits)
        return bad("window held more than windowUnits blocks");
    if (r.peakWindowOps > machine.windowOps)
        return bad("window held more than windowOps operations");
    return checkResultInvariants(r, "models", what);
}

/** A trace cache that never hits is the conventional machine: with
 *  one block per trace nothing is ever installed, so the run must
 *  equal @p conv, the conventional run of @p machine on @p trace. */
OracleResult
checkNeverHitTraceCache(const char *oracle, const Module &module,
                        const MachineConfig &machine,
                        const ExecTrace &trace, const SimResult &conv)
{
    TraceCacheConfig never;
    never.maxBlocks = 1;
    const TraceCacheResult tc =
        runTraceCache(module, machine, never, trace);
    if (tc.traceHits != 0)
        return fail(oracle, "one-block trace cache hit");
    if (tc.sim != conv)
        return fail(oracle, "one-block trace cache differs from the "
                            "conventional machine");
    return {};
}

OracleResult
checkModels(const Module &module, const ExecTrace &trace,
            const OracleOptions &options)
{
    const MachineConfig machine;

    // Conventional: replay == live, deterministic, exact accounting.
    const SimResult conv = runConventional(module, machine, trace);
    OracleResult r = checkSimInvariants(conv, machine, "conv");
    if (!r.ok)
        return r;
    if (conv.retiredOps != trace.dynOps)
        return fail("models", "conv retired " +
                                  std::to_string(conv.retiredOps) +
                                  " ops, functional execution ran " +
                                  std::to_string(trace.dynOps));
    if (conv.retiredUnits != trace.eventCount)
        return fail("models", "conv retired-unit count diverged from "
                              "the committed block stream");
    if (conv != runConventional(module, machine, trace))
        return fail("models", "conv rerun on the same trace differs");
    if (conv != runConventional(module, machine, options.limits))
        return fail("models", "conv live interpretation differs from "
                              "trace replay");

    // Block-structured machine on the default enlargement.
    const BsaModule bsa = enlargeModule(module, EnlargeConfig{});
    const SimResult bs = runBlockStructured(bsa, machine, trace);
    r = checkSimInvariants(bs, machine, "bsa");
    if (!r.ok)
        return r;
    if (bs.retiredOps > trace.dynOps ||
        bs.retiredOps + trace.eventCount < trace.dynOps)
        return fail("models", "bsa retired-op count outside the "
                              "merge-deletion envelope");
    if (bs.retiredUnits > trace.eventCount)
        return fail("models", "bsa retired more units than the "
                              "conventional block stream");
    if (bs != runBlockStructured(bsa, machine, trace))
        return fail("models", "bsa rerun on the same trace differs");

    // Trace-cache machine.
    const TraceCacheConfig tcConfig;
    const TraceCacheResult tc =
        runTraceCache(module, machine, tcConfig, trace);
    r = checkSimInvariants(tc.sim, machine, "tcache");
    if (!r.ok)
        return r;
    if (tc.sim.retiredOps != trace.dynOps)
        return fail("models", "tcache retired-op count diverged from "
                              "the functional execution");
    if (const OracleResult n = checkNeverHitTraceCache(
            "models", module, machine, trace, conv);
        !n.ok)
        return n;

    if (!options.checkParallel)
        return {};

    // A config grid fanned across BSISA_JOBS workers must be
    // byte-identical to the serial run (each point owns its state).
    std::vector<MachineConfig> grid;
    for (const unsigned width : {8u, 16u}) {
        for (const bool perfect : {false, true}) {
            MachineConfig m;
            m.issueWidth = width;
            m.perfectPrediction = perfect;
            grid.push_back(m);
            m.icache.sizeBytes = 16 * 1024;
            grid.push_back(m);
        }
    }
    auto runGrid = [&](const char *jobs) {
        setenv("BSISA_JOBS", jobs, 1);
        std::vector<SimResult> out(grid.size() * 2);
        parallelFor(grid.size() * 2, [&](std::size_t i) {
            const MachineConfig &m = grid[i / 2];
            out[i] = (i & 1)
                         ? runBlockStructured(bsa, m, trace)
                         : runConventional(module, m, trace);
        });
        return out;
    };
    const char *oldJobs = getenv("BSISA_JOBS");
    const std::string saved = oldJobs ? oldJobs : "";
    const std::vector<SimResult> serial = runGrid("1");
    const std::vector<SimResult> fanned = runGrid("3");
    if (oldJobs)
        setenv("BSISA_JOBS", saved.c_str(), 1);
    else
        unsetenv("BSISA_JOBS");
    for (std::size_t i = 0; i < serial.size(); ++i) {
        if (serial[i] != fanned[i]) {
            return fail("models",
                        "grid point " + std::to_string(i) +
                            " differs between BSISA_JOBS=1 and =3");
        }
    }
    return {};
}

// ------------------------------------------------- lockstep oracle

/** Mixed-knob config grid: every lane disagrees with its neighbors
 *  on at least one of issue width, window geometry, predictor, cache
 *  size, or perfect prediction, so lockstep lanes genuinely diverge
 *  (redirects resolve at different cycles, windows fill at different
 *  rates) and any cross-lane state bleed shows up as a result diff.
 *  The last two lanes repeat earlier ones, exactly and up to dead
 *  predictor geometry, so the engine's lane collapse runs too. */
std::vector<MachineConfig>
lockstepGrid()
{
    std::vector<MachineConfig> grid;
    MachineConfig m;
    grid.push_back(m);
    m = MachineConfig{};
    m.issueWidth = 4;
    grid.push_back(m);
    m = MachineConfig{};
    m.perfectPrediction = true;
    grid.push_back(m);
    m = MachineConfig{};
    m.icache.sizeBytes = 4 * 1024;
    m.predictor.historyBits = 4;
    m.predictor.phtBits = 10;
    grid.push_back(m);
    m = MachineConfig{};
    m.windowUnits = 4;
    m.windowOps = 64;
    m.redirectPenalty = 5;
    grid.push_back(m);
    m = MachineConfig{};
    m.predictor.scheme = PredictorScheme::PAs;
    m.dcache.sizeBytes = 1024;
    m.frontendDepth = 6;
    grid.push_back(m);
    // Tables small enough that every program evicts from the BTBs and
    // the icache.
    m = MachineConfig{};
    m.predictor.scheme = PredictorScheme::GAg;
    m.predictor.btbEntries = 8;
    m.predictor.btbAssoc = 2;
    m.icache.sizeBytes = 4 * 1024;
    m.icache.assoc = 2;
    grid.push_back(m);
    // One-wide issue fills every cycle it claims, so both the batch
    // and the singleton claim walk past full cycles.
    m = MachineConfig{};
    m.issueWidth = 1;
    grid.push_back(m);
    grid.push_back(grid[0]);
    // Perfect prediction never reads the predictor: lane 2's machine.
    m = MachineConfig{};
    m.perfectPrediction = true;
    m.predictor.historyBits = 4;
    m.predictor.phtBits = 10;
    grid.push_back(m);
    return grid;
}

OracleResult
checkLockstep(const Module &module, const ExecTrace &trace,
              const OracleOptions &options)
{
    (void)options;
    const std::vector<MachineConfig> grid = lockstepGrid();

    // Conventional machine: full batch and a partial (odd-size)
    // batch against independent replays.
    std::vector<SimResult> seq(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        seq[i] = runConventional(module, grid[i], trace);
    const std::vector<SimResult> batched =
        runConventionalBatch(module, grid, trace);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (seq[i] != batched[i]) {
            return fail("lockstep",
                        "conv lane " + std::to_string(i) +
                            " differs from independent replay");
        }
    }
    const std::vector<MachineConfig> odd(grid.begin(),
                                         grid.begin() + 3);
    const std::vector<SimResult> oddBatch =
        runConventionalBatch(module, odd, trace);
    for (std::size_t i = 0; i < odd.size(); ++i) {
        if (seq[i] != oddBatch[i]) {
            return fail("lockstep",
                        "conv partial-batch lane " +
                            std::to_string(i) + " differs");
        }
    }

    // Block-structured machine on the default enlargement.
    const BsaModule bsa = enlargeModule(module, EnlargeConfig{});
    std::vector<SimResult> bseq(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        bseq[i] = runBlockStructured(bsa, grid[i], trace);
    const std::vector<SimResult> bbatch =
        runBlockStructuredBatch(bsa, grid, trace);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (bseq[i] != bbatch[i]) {
            return fail("lockstep",
                        "bsa lane " + std::to_string(i) +
                            " differs from independent replay");
        }
    }
    // Reversed lane order: the walk must not depend on lane layout.
    std::vector<MachineConfig> rev(grid.rbegin(), grid.rend());
    const std::vector<SimResult> rbatch =
        runBlockStructuredBatch(bsa, rev, trace);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (bseq[grid.size() - 1 - i] != rbatch[i]) {
            return fail("lockstep",
                        "bsa reversed lane " + std::to_string(i) +
                            " differs from independent replay");
        }
    }

    return {};
}

// ------------------------------------------------------ ooo oracle

/** Structural invariants of one simulateOoO() run: the shared
 *  checkResultInvariants plus the OoO bounds.  The OoO backend reports
 *  ROB occupancy through peakWindow*, so the abstract window bounds do
 *  not apply; the bounds here are the configured ROB/LSQ capacities
 *  plus the telemetry violation counters, which a correct backend
 *  never increments (ROB within capacity, in-order commit, no load
 *  forwards from a younger store). */
OracleResult
checkOooInvariants(const SimResult &r, const OooTelemetry &tel,
                   const MachineConfig &machine, const char *what)
{
    auto bad = [&](const std::string &msg) {
        return fail("ooo", std::string(what) + ": " + msg);
    };
    if (r.peakWindowOps > machine.ooo.robOps ||
        tel.peakRobOps > machine.ooo.robOps)
        return bad("ROB held more ops than robOps");
    if (tel.peakLsq > machine.ooo.lsqEntries)
        return bad("LSQ held more entries than lsqEntries");
    if (tel.robOverflows)
        return bad("ROB overflow recorded");
    if (tel.commitOrderViolations)
        return bad("out-of-order commit recorded");
    if (tel.youngerForwards)
        return bad("load forwarded from a younger store");
    if (tel.checkpointsRestored > tel.checkpointsTaken)
        return bad("more checkpoints restored than taken");
    return checkResultInvariants(r, "ooo", what);
}

OracleResult
checkOoo(const Module &module, const ExecTrace &trace,
         const OracleOptions &options)
{
    (void)options;
    const MachineConfig abstractM;
    MachineConfig oooM;
    oooM.timingModel = TimingModel::Ooo;

    // Conventional machine: exact committed-op accounting, the
    // span-retention digest, and determinism.
    const ConvLayout layout(module);
    const DecodedProgram decoded = DecodedProgram::forModule(module);
    OooTelemetry tel;
    SimResult conv;
    {
        ConvFetchSource source(module, layout, oooM, trace, decoded);
        conv = simulateOoO(source, oooM, &tel);
    }
    OracleResult r = checkOooInvariants(conv, tel, oooM, "conv");
    if (!r.ok)
        return r;
    if (conv.retiredOps != trace.dynOps)
        return fail("ooo", "conv committed " +
                               std::to_string(conv.retiredOps) +
                               " ops, functional execution ran " +
                               std::to_string(trace.dynOps));
    if (conv.retiredUnits != trace.eventCount)
        return fail("ooo", "conv committed-unit count diverged from "
                           "the committed block stream");
    {
        // Commit order == emit order under in-order commit, so the
        // digest folded at ROB drain (from spans retained across many
        // next() calls) must equal the emit-time fold on a fresh walk.
        ConvFetchSource ref(module, layout, oooM, trace, decoded);
        if (tel.commitDigest != fetchStreamDigest(ref))
            return fail("ooo", "conv commit-order digest differs from "
                               "the emit-time fetch-stream digest");
    }
    {
        OooTelemetry again;
        ConvFetchSource source(module, layout, oooM, trace, decoded);
        if (conv != simulateOoO(source, oooM, &again) ||
            again.commitDigest != tel.commitDigest)
            return fail("ooo", "conv rerun on the same trace differs");
    }
    // The runner must dispatch timing_model=ooo to this backend.
    if (conv != runConventional(module, oooM, trace))
        return fail("ooo", "runner dispatch differs from direct "
                           "simulateOoO");
    // Same committed stream as the abstract model; only the cycle
    // accounting may (and on real streams does) differ.
    const SimResult abstractConv =
        runConventional(module, abstractM, trace);
    if (abstractConv.retiredOps != conv.retiredOps ||
        abstractConv.retiredUnits != conv.retiredUnits)
        return fail("ooo", "abstract and ooo committed streams differ");

    // Block-structured machine on the default enlargement.
    const BsaModule bsa = enlargeModule(module, EnlargeConfig{});
    const DecodedProgram bsaDecoded = DecodedProgram::forBsa(bsa);
    OooTelemetry btel;
    SimResult bs;
    {
        BsaFetchSource source(bsa, oooM, trace, bsaDecoded);
        bs = simulateOoO(source, oooM, &btel);
    }
    r = checkOooInvariants(bs, btel, oooM, "bsa");
    if (!r.ok)
        return r;
    if (bs.retiredOps > trace.dynOps ||
        bs.retiredOps + trace.eventCount < trace.dynOps)
        return fail("ooo", "bsa committed-op count outside the "
                           "merge-deletion envelope");
    {
        BsaFetchSource ref(bsa, oooM, trace, bsaDecoded);
        if (btel.commitDigest != fetchStreamDigest(ref))
            return fail("ooo", "bsa commit-order digest differs from "
                               "the emit-time fetch-stream digest");
    }
    if (bs != runBlockStructured(bsa, oooM, trace))
        return fail("ooo", "bsa rerun on the same trace differs");

    // Trace-cache machine through the runner dispatch.
    const TraceCacheConfig tcConfig;
    const TraceCacheResult tc =
        runTraceCache(module, oooM, tcConfig, trace);
    if (tc.sim.retiredOps != trace.dynOps)
        return fail("ooo", "tcache committed-op count diverged from "
                           "the functional execution");
    if (tc.sim != runTraceCache(module, oooM, tcConfig, trace).sim)
        return fail("ooo", "tcache rerun on the same trace differs");
    if (const OracleResult n =
            checkNeverHitTraceCache("ooo", module, oooM, trace, conv);
        !n.ok)
        return n;

    // A mixed abstract/ooo grid through the batch entry points must
    // equal the per-config path (the lane partition in exp/runner.cc
    // peels OoO lanes out of the lockstep walk and scatters results
    // back by lane index).
    std::vector<MachineConfig> mixed{abstractM, oooM, abstractM, oooM};
    mixed[2].issueWidth = 8;
    mixed[3].ooo.robOps = 64;
    mixed[3].ooo.lsqEntries = 8;
    mixed[3].ooo.rsPerClass = 6;
    std::vector<SimResult> seq(mixed.size());
    for (std::size_t i = 0; i < mixed.size(); ++i)
        seq[i] = runConventional(module, mixed[i], trace);
    const std::vector<SimResult> batch =
        runConventionalBatch(module, mixed, trace);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        if (seq[i] != batch[i]) {
            return fail("ooo", "mixed conv batch lane " +
                                   std::to_string(i) +
                                   " differs from per-config run");
        }
    }
    std::vector<SimResult> bseq(mixed.size());
    for (std::size_t i = 0; i < mixed.size(); ++i)
        bseq[i] = runBlockStructured(bsa, mixed[i], trace);
    const std::vector<SimResult> bbatch =
        runBlockStructuredBatch(bsa, mixed, trace);
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        if (bseq[i] != bbatch[i]) {
            return fail("ooo", "mixed bsa batch lane " +
                                   std::to_string(i) +
                                   " differs from per-config run");
        }
    }

    // Tiny-geometry stress: every structural bound pinching at once
    // must still commit the exact functional stream.
    MachineConfig tiny = oooM;
    tiny.ooo.robOps = 24;
    tiny.ooo.physRegs = 40;
    tiny.ooo.rsPerClass = 2;
    tiny.ooo.lsqEntries = 4;
    tiny.ooo.commitWidth = 2;
    OooTelemetry ttel;
    SimResult ts;
    {
        ConvFetchSource source(module, layout, tiny, trace, decoded);
        ts = simulateOoO(source, tiny, &ttel);
    }
    r = checkOooInvariants(ts, ttel, tiny, "tiny");
    if (!r.ok)
        return r;
    if (ts.retiredOps != trace.dynOps ||
        ttel.commitDigest != tel.commitDigest)
        return fail("ooo", "tiny-geometry run changed the committed "
                           "stream");
    {
        // The commit-digest audit runs only with telemetry and must
        // only observe.
        ConvFetchSource source(module, layout, tiny, trace, decoded);
        if (ts != simulateOoO(source, tiny))
            return fail("ooo", "tiny-geometry run without telemetry "
                               "differs from the audited run");
    }
    return {};
}

// -------------------------------------------------- compile oracle

/** Op budget multiple the unoptimized build gets: it keeps the copies,
 *  constants and recomputations the optimizer removes. */
constexpr std::uint64_t unoptimizedBudgetScale = 8;

OracleResult
checkCompile(const std::string &source, const Expectation &golden,
             const OracleOptions &options)
{
    CompileOptions plain;
    plain.optimize = false;
    plain.allocate = false;
    const CompileResult compiled = compileBlockC(source, plain);
    if (!compiled.ok) {
        return fail("compile", "unoptimized build did not compile: " +
                                   compiled.errors);
    }
    Interp::Limits limits = options.limits;
    limits.maxOps *= unoptimizedBudgetScale;
    const Expectation plain_run = computeExpectation(compiled.module, limits);
    if (!plain_run.halted) {
        return fail("compile", "unoptimized build did not halt within " +
                                   std::to_string(limits.maxOps) +
                                   " ops");
    }
    if (plain_run.exit != golden.exit) {
        return fail("compile", "exit value " + std::to_string(golden.exit) +
                                   " differs from the unoptimized " +
                                   std::to_string(plain_run.exit));
    }
    if (plain_run.dataChecksum != golden.dataChecksum) {
        return fail("compile", "data segment differs from the "
                               "unoptimized build's");
    }
    return {};
}

} // namespace

OracleResult
checkProgram(const std::string &source, unsigned mask,
             const OracleOptions &options)
{
    const CompileResult compiled = compileBlockC(source);
    if (!compiled.ok)
        return fail("frontend", "compile error: " + compiled.errors);
    const Module &module = compiled.module;

    const Expectation golden = computeExpectation(module, options.limits);
    if (!golden.halted) {
        return fail("interp",
                    "program did not halt within " +
                        std::to_string(options.limits.maxOps) + " ops");
    }

    const ExecTrace trace = captureTrace(module, options.limits);

    OracleResult r;
    if (mask & oracleInterp) {
        r = checkInterp(module, trace, golden, options);
        if (!r.ok)
            return r;
    }
    if (mask & oracleEnlarge) {
        r = checkEnlarge(module, trace, golden, options);
        if (!r.ok)
            return r;
    }
    if (mask & oracleModels) {
        r = checkModels(module, trace, options);
        if (!r.ok)
            return r;
    }
    if (mask & oracleLockstep) {
        r = checkLockstep(module, trace, options);
        if (!r.ok)
            return r;
    }
    if (mask & oracleOoo) {
        r = checkOoo(module, trace, options);
        if (!r.ok)
            return r;
    }
    if (mask & oracleCompile) {
        r = checkCompile(source, golden, options);
        if (!r.ok)
            return r;
    }
    return r;
}

} // namespace fuzz
} // namespace bsisa
