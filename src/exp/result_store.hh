/**
 * @file
 * Persistent results store for the sweep service.
 *
 * The store is a directory holding one append log (`log.bsr`) plus
 * an optional compacted snapshot (`snapshot.bsr`).  Each record is
 * one work unit's PairResult, framed with a length, a magic, and an
 * FNV-1a checksum, so a `kill -9` mid-append costs exactly the torn
 * tail frame: a reader keeps the intact prefix and drops the tail —
 * the same graceful-degrade discipline as sim/trace_store.cc, with
 * the same atomic write-to-temp+rename publish for the snapshot.
 *
 * Concurrency model: one writer per store.  A writer holds the
 * store's lock (`writer.lock`, a FileLease: an flock the kernel drops
 * when the holder exits, however it dies) from its first append or
 * compaction until its handle is destroyed.  The pid in the file only
 * labels lock errors and `status`.  A resumed writer
 * first truncates the log back to its last whole frame, so records
 * it appends never sit behind a torn one.  Readers take no lock:
 * refresh() reads the snapshot, then the log, first record per unit
 * key wins.  Duplicate keys are expected (a resumed run may repeat a
 * unit whose record was torn, and a crash between compaction's
 * publish and its unlink leaves the log beside the snapshot — units
 * are idempotent and deterministic, so duplicates are byte-identical;
 * a byte-differing duplicate is warned about and ignored).  compact()
 * folds both into a deterministic `snapshot.bsr` — records sorted by
 * unit key — and unlinks the log; two stores with
 * the same content compact to byte-identical snapshots, which is
 * what the crash-resume test asserts.
 *
 * Versions: a log or snapshot whose header is another format
 * version's is skipped by readers (counted in badShards) and refused
 * by writers, which leave its bytes as they are.
 */

#ifndef BSISA_EXP_RESULT_STORE_HH
#define BSISA_EXP_RESULT_STORE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "support/lockfile.hh"

namespace bsisa
{

/** On-disk layout version; a component of every work-unit key, so
 *  bumping it re-keys (and thus invalidates) old results. */
constexpr std::uint32_t resultStoreFormatVersion = 1;

constexpr char resultStoreMagic[8] = {'B', 'S', 'A', 'R',
                                      'E', 'S', '0', '1'};

/** One stored record.  POD, memcpy'd to disk; the key fields are
 *  stored redundantly with the frame so a record is self-describing
 *  (status tools need no plan to interpret a store). */
struct ResultRecord
{
    std::uint64_t unitKey;
    std::uint64_t moduleDigest;
    std::uint64_t configDigest;
    std::uint32_t interpVersionTag;
    std::uint32_t formatVersion;
    PairResult pair;
};

/** Build a fully initialised record (zeroed padding-free POD). */
ResultRecord makeResultRecord(std::uint64_t unitKey,
                              std::uint64_t moduleDigest,
                              std::uint64_t configDigest,
                              const PairResult &pair);

/** What refresh() saw in the snapshot and the log. */
struct ResultScanStats
{
    std::uint64_t records = 0;     //!< distinct unit keys indexed
    std::uint64_t duplicates = 0;  //!< same-key records skipped
    std::uint64_t tornTails = 0;   //!< files truncated at a torn frame
    std::uint64_t badShards = 0;   //!< unreadable headers (skipped)
    std::uint64_t shardFiles = 0;  //!< files scanned (log, snapshot)
};

/**
 * One handle on a store directory.  refresh() (re)builds the
 * in-memory index from disk; append() publishes one record to the
 * log and indexes it.  Reading needs no lock; append() and compact()
 * take the store's writer lock first and hold it until the handle is
 * destroyed.  The handle itself is not thread-safe.
 */
class ResultStore
{
  public:
    explicit ResultStore(std::string directory);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    const std::string &directory() const { return dir; }

    /** The writer lock's path, `<directory>/writer.lock`. */
    std::string lockPath() const { return dir + "/writer.lock"; }

    /** Rebuild the index from the snapshot and the log. */
    ResultScanStats refresh();

    bool contains(std::uint64_t unitKey) const
    {
        return index.find(unitKey) != index.end();
    }

    /** The indexed record, or nullptr. */
    const ResultRecord *find(std::uint64_t unitKey) const;

    std::size_t size() const { return index.size(); }

    /** Unit keys in sorted order (rendering walks the plan, not the
     *  store, so this is for status output and tests). */
    std::vector<std::uint64_t> keys() const;

    /**
     * Take the store's writer lock (held until destruction; a no-op
     * when already held).  The directory must exist.  False, with
     * @p error naming the pid in the lock file when it names one, when
     * another writer holds the lock or it cannot be created; false,
     * with @p error from foreignFile(), when the store holds another
     * version's file (the lock is released again).
     */
    bool lockWriter(std::string &error);

    /**
     * Why a writer must leave this store alone, naming the file and
     * both versions: `log.bsr` or `snapshot.bsr` holds a whole 16-byte
     * header that is not this version's.  Empty when neither does (a
     * shorter, torn header is started over).
     */
    std::string foreignFile() const;

    /**
     * Append one record to the log and index it.  The first append
     * takes the writer lock and truncates the log to its last whole
     * frame.  The frame is flushed before returning, so a subsequent
     * SIGKILL cannot tear it.  False when the lock is held elsewhere
     * or the directory is not writable.
     */
    bool append(const ResultRecord &record);

    /**
     * Take the writer lock, fold every record on disk into
     * `snapshot.bsr` (records sorted by unit key, temp+rename
     * publish) and unlink the log.  Implies refresh().  False when
     * the lock is held elsewhere or on write failure.
     */
    bool compact();

  private:
    std::string dir;
    std::map<std::uint64_t, ResultRecord> index;
    FileLease writer;   //!< the writer lock, once taken
    std::ofstream log;  //!< the append log, once opened
};

} // namespace bsisa

#endif // BSISA_EXP_RESULT_STORE_HH
