/**
 * @file
 * Differential oracles for the fuzzing harness.
 *
 * Each oracle compiles nothing itself — it takes a BlockC source
 * string, compiles it once, and checks one equivalence class:
 *
 *   interp  — the three execution paths produce the same committed
 *             stream and architectural state: live Interp, ExecTrace
 *             replay, and a trace-store encode/mmap round trip.
 *   enlarge — block enlargement is semantics-preserving: conventional
 *             vs BsaInterp final state matches under every
 *             EnlargeConfig termination-condition setting, under
 *             first and adversarial-random variant policies (the
 *             fault-op suppression paths), and a budget expiring
 *             inside an enlarged block never commits a partial block
 *             (all-or-nothing).
 *   models  — the cycle-level simulators uphold their invariants on
 *             all three machines (retired-op accounting, prediction
 *             accounting, window occupancy bounds, cycle lower
 *             bounds), replay is bit-identical to live interpretation,
 *             results are deterministic across reruns, and a config
 *             grid fanned across BSISA_JOBS worker counts is
 *             byte-identical to the serial run.
 *   lockstep — batched multi-config simulation (sim/lockstep.hh) is
 *             bit-identical to independent per-config replay on the
 *             conventional and block-structured machines, for full
 *             batches, partial batches, and odd lane orders.
 *   ooo     — the out-of-order backend (sim/ooo) commits the same
 *             architectural stream as the interpreter: committed-op
 *             counts match the functional execution, the commit-order
 *             digest equals the emit-time fetch-stream digest (the
 *             span-retention proof), its structural invariants hold
 *             (ROB within capacity, in-order commit, no load forwards
 *             from a younger store), results are deterministic across
 *             reruns, and a mixed abstract/ooo batch equals the
 *             per-config path.
 *   compile — the optimizer and register allocator preserve
 *             semantics: the program compiled with
 *             CompileOptions::optimize and allocate off halts with
 *             the same exit value and data segment (the stack is left
 *             out: spill slots legitimately change it).
 *
 * A bug can be injected deliberately (fault-injection testing of the
 * harness itself): the enlarged module is mutated after enlargement
 * the way a buggy compiler would emit it.
 */

#ifndef BSISA_FUZZ_ORACLE_HH
#define BSISA_FUZZ_ORACLE_HH

#include <cstdint>
#include <string>

#include "sim/interp.hh"

namespace bsisa
{
namespace fuzz
{

/** Which oracles to run; bitmask. */
enum OracleMask : unsigned
{
    oracleInterp = 1u << 0,
    oracleEnlarge = 1u << 1,
    oracleModels = 1u << 2,
    oracleLockstep = 1u << 3,
    oracleOoo = 1u << 4,
    oracleCompile = 1u << 5,
    oracleAll = oracleInterp | oracleEnlarge | oracleModels |
                oracleLockstep | oracleOoo | oracleCompile,
};

/** Parse "interp|enlarge|models|lockstep|ooo|compile|all"
 *  (comma-separated allowed); returns 0 on an unrecognized name. */
unsigned parseOracleMask(const std::string &spec);

/** Deliberate defects for harness self-tests (--inject). */
enum class InjectedBug
{
    None,
    /** Delete every fault operation from the enlarged module, as if
     *  the compiler forgot fault-op suppression: wrong variants then
     *  commit garbage instead of redirecting. */
    SkipFaultSuppression,
    /** Invert every fault's firing polarity. */
    FlipFaultPolarity,
};

InjectedBug parseInjectedBug(const std::string &name);

struct OracleOptions
{
    /** Functional op budget per program execution. */
    Interp::Limits limits;
    /** Random variant policies tried per enlargement config. */
    unsigned adversarialSeeds = 2;
    /** Scratch directory for trace-store round trips (empty: use a
     *  process-unique directory under the system temp dir). */
    std::string scratchDir;
    InjectedBug inject = InjectedBug::None;
    /** Run the BSISA_JOBS fan-out cross-check in the models oracle
     *  (spawns threads; off for minimal shrink re-runs). */
    bool checkParallel = true;

    OracleOptions() { limits.maxOps = 1u << 20; }
};

/** Outcome of one oracle run over one program. */
struct OracleResult
{
    bool ok = true;
    /** Which oracle failed ("interp", "enlarge", "models", ...), or
     *  "frontend" when the program did not compile.  The shrinker
     *  keys on this name, so a reproducer can never degrade from a
     *  semantic divergence into a mere compile error. */
    std::string oracle;
    /** Human-readable failure description. */
    std::string detail;
};

/** Run the selected oracles over BlockC source; stops at the first
 *  failing oracle.  A program that fails to compile fails "frontend";
 *  one that does not halt within the op budget fails "interp". */
OracleResult checkProgram(const std::string &source, unsigned mask,
                          const OracleOptions &options);

} // namespace fuzz
} // namespace bsisa

#endif // BSISA_FUZZ_ORACLE_HH
