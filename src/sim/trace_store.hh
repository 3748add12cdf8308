/**
 * @file
 * Persistent content-addressed store of functional traces.
 *
 * The experiment suite is many separate bench processes, each of
 * which needs the same eight committed-block streams (one per
 * benchmark x op budget).  PR 1 made capture once-per-process; this
 * store makes it once-per-*content*: a captured ExecTrace is written
 * to `BSISA_TRACE_DIR` under a key derived from the compiled module
 * bytes, the op budget, and the interpreter version, and every later
 * run — same process or not — mmaps the entry back as a live
 * ExecTrace instead of re-executing the program.
 *
 * On-disk format (little-endian, one file per entry):
 *
 *   [TraceFileHeader]  magic, format + interp versions, the full
 *                      content key, counts, the trace's tail (the
 *                      last event's successor), section geometry,
 *                      and per-section FNV-1a checksums (the header
 *                      itself is checksummed too).
 *   [event section]    the TraceEvent records themselves, 16 bytes
 *                      each, 64-byte aligned at traceEventsOffset.
 *   [address pool]     the Ld/St addresses as raw uint64s, 64-byte
 *                      aligned.
 *
 * Both sections are stored as the trace holds them *because* replay
 * reads them in place: the mmap-ed pages become ExecTrace::events and
 * ExecTrace::memAddrs directly, so a warm trace owns nothing.
 *
 * Opening verifies the header (its counts against maxTraceEntries and
 * eventBytes == 16 x eventCount, before any section is read), both
 * section checksums, and then each record's bytes before any is read
 * as a TraceEvent: an exit kind up to Halt, a taken byte of 0 or 1, a
 * zero spare field, and pool offsets that start at 0, never decrease
 * and end within the pool (the span-adjacency invariant of ExecTrace).
 * Any mismatch (torn write, stale version, truncation, tampering)
 * degrades gracefully: warn once,
 * fall back to live capture, and atomically repair the entry
 * (write-to-temp + rename, safe under BSISA_JOBS concurrency and
 * across processes).  An entry is written into its temp file straight
 * from the captured trace's two pools, so writing one holds no second
 * copy of the trace.  A reader that needs only the header's
 * counts (Table 2's op count) applies the same header checks without
 * opening the sections (readTraceHeader with a key).
 */

#ifndef BSISA_SIM_TRACE_STORE_HH
#define BSISA_SIM_TRACE_STORE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ir/module.hh"
#include "sim/trace.hh"

namespace bsisa
{

/** Format version of the on-disk layout (content-key component). */
constexpr std::uint32_t traceStoreFormatVersion = 2;

/** Digest of a module's complete compiled form (structure + data),
 *  via the canonical text serialization.  Compute once per module
 *  and reuse — suite drivers hash each benchmark exactly once. */
std::uint64_t moduleDigest(const Module &module);

/** The content-address key of one trace entry. */
struct TraceKey
{
    std::uint64_t moduleDigest = 0;
    std::uint64_t maxOps = 0;
    std::uint64_t maxBlocks = 0;

    /** Entry file name: hex of the combined key hash. */
    std::string fileName() const;
};

/** On-disk entry header.  POD, written/read by memcpy; all integer
 *  fields little-endian (the store is a same-machine cache, not an
 *  interchange format — tracedump verifies, it does not translate). */
struct TraceFileHeader
{
    char magic[8];                   //!< traceStoreMagic
    std::uint32_t formatVersion;     //!< traceStoreFormatVersion
    std::uint32_t interpVersionTag;  //!< interpVersion
    std::uint64_t moduleDigest;
    std::uint64_t maxOps;
    std::uint64_t maxBlocks;
    std::uint64_t dynOps;
    std::uint64_t dynBlocks;
    std::uint64_t eventCount;   //!< TraceEvent records in the stream
    std::uint64_t eventBytes;   //!< 16 x eventCount
    std::uint64_t addrCount;    //!< uint64 entries in the pool
    std::uint64_t addrOffset;   //!< file offset of the pool (aligned)
    std::uint32_t tailFunc;     //!< ExecTrace::tailFunc
    std::uint32_t tailBlock;    //!< ExecTrace::tailBlock
    std::uint64_t eventChecksum;
    std::uint64_t addrChecksum;
    std::uint64_t headerChecksum;  //!< over all preceding bytes
};

constexpr char traceStoreMagic[8] = {'B', 'S', 'A', 'T',
                                     'R', 'C', '0', '1'};

/** Alignment of both sections in an entry file (a cache line). */
constexpr std::uint64_t traceSectionAlign = 64;

/** File offset of the event section: the header, rounded up to the
 *  section alignment. */
constexpr std::uint64_t traceEventsOffset =
    (sizeof(TraceFileHeader) + traceSectionAlign - 1) &
    ~(traceSectionAlign - 1);

/** Why an open failed; Ok means the entry was mapped. */
enum class TraceOpenStatus
{
    Ok,
    NoEntry,        //!< file absent (cold) — not a corruption
    BadHeader,      //!< short file, magic/checksum mismatch
    BadVersion,     //!< format or interpreter version is stale
    BadKey,         //!< header key fields disagree with the request
    BadGeometry,    //!< section offsets/sizes exceed the file
    BadChecksum,    //!< an event/address section checksum mismatch
    BadEventStream, //!< an event record breaks a rule of ExecTrace
};

/** Human-readable name of an open status (tracedump, warnings). */
const char *traceOpenStatusName(TraceOpenStatus status);

/** Serialize @p trace into the on-disk entry format, streamed into
 *  @p out: the header, then the event records and the address pool
 *  straight from the trace's own storage.  False when the stream
 *  fails. */
bool encodeTrace(const ExecTrace &trace, const TraceKey &key,
                 std::ostream &out);

/** The same bytes as one vector (tests, the fuzz oracle). */
std::vector<std::uint8_t> encodeTrace(const ExecTrace &trace,
                                      const TraceKey &key);

/**
 * Open one entry file: mmap, verify header + checksums against
 * @p key, then validate the event records.  On success @p out is a
 * live trace whose events and address pool both point into the
 * mapping (pinned by ExecTrace::backing).
 */
TraceOpenStatus openTraceFile(const std::string &path,
                              const TraceKey &key, ExecTrace &out);

/** Read just the header of an entry file (tracedump). */
bool readTraceHeader(const std::string &path, TraceFileHeader &out);

/** Read the header of the entry for @p key and apply the checks
 *  openTraceFile applies to a header: magic, header checksum, format
 *  and interpreter versions, and key.  Ok means its counts (dynOps,
 *  eventCount, ...) are the entry's, read without opening the
 *  sections; NoEntry when the file is absent. */
TraceOpenStatus readTraceHeader(const std::string &path,
                                const TraceKey &key,
                                TraceFileHeader &out);

/** One entry of a store-directory listing (`bsisa-tracedump --list`,
 *  `bsisa-sweep status`).  The header is only meaningful when
 *  headerOk; a false headerOk flags a short or unreadable entry, or a
 *  current-version one whose header checksum fails, without aborting
 *  the listing. */
struct TraceStoreEntryInfo
{
    std::string path;           //!< full path of the entry file
    TraceFileHeader header;     //!< raw header bytes (when headerOk)
    std::uint64_t fileBytes = 0;
    bool headerOk = false;
};

/** Enumerate every `*.bstrace` entry under @p dir, sorted by file
 *  name for deterministic output.  Missing/empty directories yield an
 *  empty listing (not an error — a cold cache looks the same). */
std::vector<TraceStoreEntryInfo> listTraceStore(const std::string &dir);

/** Process-wide store traffic, for suite reporting and tests. */
struct TraceStoreStats
{
    std::uint64_t warmLoads = 0;     //!< entries served from disk
    std::uint64_t coldCaptures = 0;  //!< misses that captured + wrote
    std::uint64_t fallbacks = 0;     //!< entries present but rejected
};

/**
 * A directory of trace entries.  Stateless beyond the path: entries
 * are looked up per call, so many threads and processes may share
 * one directory (writes are atomic renames).
 */
class TraceStore
{
  public:
    explicit TraceStore(std::string directory);

    /** The store named by BSISA_TRACE_DIR, or disabled when unset. */
    static TraceStore fromEnv();

    /** False when the store is disabled (no directory configured). */
    bool enabled() const { return !dir.empty(); }

    const std::string &directory() const { return dir; }

    /** Full path of the entry for @p key. */
    std::string entryPath(const TraceKey &key) const;

    /**
     * The capture-or-open primitive: return the trace for
     * (module, limits), serving it from disk when a valid entry
     * exists and otherwise capturing live and (re)writing the entry,
     * streamed to a temp file and renamed into place.
     * @p digest is moduleDigest(module), hoisted so callers hash each
     * module once per suite.  @p persisted, when given, is set to
     * whether the store can serve the trace again: it was opened
     * from an entry, or its entry was written.
     */
    ExecTrace load(const Module &module, std::uint64_t digest,
                   Interp::Limits limits,
                   bool *persisted = nullptr) const;

    /** Process-wide traffic counters. */
    static TraceStoreStats stats();

    /** Reset the traffic counters (tests). */
    static void resetStats();

  private:
    std::string dir;
};

/**
 * Convenience used by the runners and bench drivers: capture-or-open
 * through the BSISA_TRACE_DIR store, or plain captureTrace when the
 * store is disabled (the default — behavior is then byte-identical
 * to capture-always).  The @p digest overload reuses a hoisted
 * module hash.
 */
ExecTrace captureOrLoadTrace(const Module &module,
                             Interp::Limits limits);
ExecTrace captureOrLoadTrace(const Module &module, std::uint64_t digest,
                             Interp::Limits limits);

} // namespace bsisa

#endif // BSISA_SIM_TRACE_STORE_HH
