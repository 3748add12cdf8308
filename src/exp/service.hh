/**
 * @file
 * The sweep service: multi-process scheduling of content-addressed
 * work units over a shared results store.
 *
 * Roles:
 *
 *   worker       runSweepWorker() — builds the plan, then repeatedly
 *                passes over the lease chunks: skip chunks whose
 *                units are all stored (warm), skip chunks leased by a
 *                live peer, otherwise lease the chunk into the current
 *                round.  A round holds up to BSISA_JOBS chunks with
 *                pending units (one at one job); when it is full, or
 *                the pass ends, the worker acquires the round's
 *                missing traces in one parallelFor, simulates every
 *                pending unit of the round as one PairSweep, and
 *                publishes one record per unit in lease order,
 *                releasing each chunk's lease right after its last
 *                record.  Chunks are benchmark-major, so a trace is
 *                dropped once the pass has passed its benchmark's
 *                last chunk (and re-acquired should a dead peer's
 *                chunk come back).  Exits when every unit of the plan
 *                is stored.
 *   coordinator  runSweepCoordinator() — spawns N worker processes
 *                on the same spec + store, waits for them, runs one
 *                in-process worker pass as the completeness check
 *                (which doubles as crash resume: a killed worker's
 *                pending chunks are simply re-leased), and compacts
 *                the store.
 *   render       renderSweepFromStore() — re-derives the plan and
 *                renders the spec's figure from stored records,
 *                byte-identical to the monolithic figure drivers.
 *
 * Safety argument: units are idempotent and deterministic, record
 * publishes are atomic appends of checksummed frames, and leases are
 * only an optimization — so `kill -9` of any role at any point
 * costs at most the in-flight units, and re-running any unit writes
 * a byte-identical duplicate that compaction folds away.
 *
 * Warm fast path: on completion a worker publishes a plan marker
 * (`plan-<spec digest>.plan`, the unit-key list) keyed by the spec's
 * canonical digest.  A warm rerun finds the marker, checks the store
 * covers every listed key, and skips plan building — module
 * generation included — so resweeping a finished grid costs a
 * directory scan.
 */

#ifndef BSISA_EXP_SERVICE_HH
#define BSISA_EXP_SERVICE_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "exp/plan.hh"

namespace bsisa
{

/** Worker knobs. */
struct SweepWorkerOptions
{
    std::string storeDir;
    std::uint64_t chunkOverride = 0;  //!< 0 = spec's chunk_units
    std::ostream *log = nullptr;      //!< progress/diagnostic sink
};

/** What one worker run did. */
struct SweepWorkerOutcome
{
    std::size_t units = 0;      //!< plan size
    std::size_t executed = 0;   //!< units simulated + published here
    std::size_t warm = 0;       //!< units already stored at first sight
    std::size_t peerSkips = 0;  //!< chunk claims lost to live peers
    bool complete = false;      //!< every unit stored on exit
};

/** Run one worker in-process until the plan is complete. */
SweepWorkerOutcome runSweepWorker(const SweepSpec &spec,
                                  const SweepWorkerOptions &opts);

/** Coordinator knobs. */
struct SweepRunOptions
{
    std::string storeDir;
    std::uint64_t chunkOverride = 0;
    unsigned workers = 1;
    /** This binary's path (argv[0]); empty = run in-process only. */
    std::string selfExe;
    /** Spec file path handed to spawned workers. */
    std::string specPath;
};

/** Coordinate a full sweep; true when the store ends complete. */
bool runSweepCoordinator(const SweepSpec &spec,
                         const SweepRunOptions &opts,
                         std::ostream &log);

/** Render the spec's figure from the store; false (with @p error)
 *  when the store does not cover the plan. */
bool renderSweepFromStore(std::ostream &os, const SweepSpec &spec,
                          const std::string &storeDir,
                          std::string &error);

/** Results-store + lease status summary (`bsisa-sweep status`). */
void printSweepStatus(std::ostream &os, const std::string &storeDir);

/** Human-readable listing of a BSISA_TRACE_DIR store — key,
 *  benchmark, events, bytes (`bsisa-tracedump --list`, also part of
 *  `bsisa-sweep status`). */
void printTraceStoreListing(std::ostream &os, const std::string &dir);

} // namespace bsisa

#endif // BSISA_EXP_SERVICE_HH
