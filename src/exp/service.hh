/**
 * @file
 * The sweep service: content-addressed work units run in-process
 * against a persistent, single-writer results store.
 *
 * Roles:
 *
 *   run          runSweepCoordinator() — takes the store's writer lock
 *                (a second writer on a store whose holder is alive
 *                fails, naming the holder's pid; the kernel drops a
 *                dead holder's flock), builds the plan and runs every
 *                unit not yet stored as one PairSweep on BSISA_JOBS
 *                workers.  The sweep acquires a benchmark's trace
 *                when its first batch starts and drops it after its
 *                last, and appends a unit's record, under one mutex,
 *                as soon as both of its batches finish.  Once every
 *                unit is stored it compacts the store under the same
 *                lock (`bsisa-sweep run`).
 *   render       renderSweepFromStore() — re-derives the plan and
 *                renders the spec's figure from stored records,
 *                byte-identical to the monolithic figure drivers.
 *
 * Safety argument: units are idempotent and deterministic, and each
 * record is an appended checksummed frame flushed before the next
 * unit's, so `kill -9` at any point costs at most the unpublished
 * units: the resumed run takes the lock the kernel dropped with the
 * dead writer, truncates a torn tail, counts the stored units as warm
 * and runs the rest.
 * Readers (render, status) take no lock.
 *
 * Warm fast path: on completion a sweep publishes a plan marker
 * (`plan-<spec digest>.plan`, the unit-key list) keyed by the spec's
 * canonical digest.  A warm rerun finds the marker, checks the store
 * covers every listed key, and skips plan building — module
 * generation included — so resweeping a finished grid costs a read
 * of the store.
 */

#ifndef BSISA_EXP_SERVICE_HH
#define BSISA_EXP_SERVICE_HH

#include <ostream>
#include <string>

#include "exp/plan.hh"

namespace bsisa
{

/** `bsisa-sweep run` knobs. */
struct SweepRunOptions
{
    std::string storeDir;
};

/**
 * Run the sweep in this process until every unit of the plan is
 * stored (creating the store directory when missing), then compact
 * the store, all under its writer lock.  Diagnostics, then one line
 * `sweep: units=U executed=E warm=W`, go to @p log.  True when the
 * store ends complete and compacted.
 */
bool runSweepCoordinator(const SweepSpec &spec,
                         const SweepRunOptions &opts,
                         std::ostream &log);

/** Render the spec's figure from the store; false (with @p error)
 *  when the store does not cover the plan. */
bool renderSweepFromStore(std::ostream &os, const SweepSpec &spec,
                          const std::string &storeDir,
                          std::string &error);

/** Results-store status (`bsisa-sweep status`): record counts, the
 *  pid the writer lock's file names, plan markers, and the trace-store listing
 *  when one is configured.  False, printing nothing, when
 *  @p storeDir is not a directory. */
bool printSweepStatus(std::ostream &os, const std::string &storeDir);

/** Human-readable listing of a BSISA_TRACE_DIR store — key,
 *  benchmark, events, bytes (`bsisa-tracedump --list`, also part of
 *  `bsisa-sweep status`).  An entry no open would accept for its
 *  header alone is listed as `(corrupt header)` or, when it names
 *  another format or interpreter version, `(stale version)`. */
void printTraceStoreListing(std::ostream &os, const std::string &dir);

} // namespace bsisa

#endif // BSISA_EXP_SERVICE_HH
