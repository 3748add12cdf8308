/**
 * @file
 * Trace store implementation: entry naming, the raw-record writer,
 * mmap-backed open with one validation pass over the event records,
 * and the capture-or-open path with atomic repair.
 */

#include "sim/trace_store.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define BSISA_HAVE_MMAP 1
#else
#define BSISA_HAVE_MMAP 0
#endif

#include "ir/textform.hh"
#include "support/digest.hh"
#include "support/env.hh"
#include "support/lockfile.hh"
#include "support/logging.hh"

namespace bsisa
{

namespace
{

static_assert(sizeof(TraceFileHeader) == 120,
              "on-disk header layout changed; bump "
              "traceStoreFormatVersion");
static_assert(std::is_trivially_copyable_v<TraceFileHeader>);

// The event section is the TraceEvent array itself.
static_assert(sizeof(TraceEvent) == 16 &&
                  offsetof(TraceEvent, func) == 0 &&
                  offsetof(TraceEvent, block) == 4 &&
                  offsetof(TraceEvent, memBegin) == 8 &&
                  offsetof(TraceEvent, exit) == 12 &&
                  offsetof(TraceEvent, taken) == 13 &&
                  offsetof(TraceEvent, spare) == 14,
              "on-disk event record layout changed; bump "
              "traceStoreFormatVersion");
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(traceEventsOffset % alignof(TraceEvent) == 0);

std::atomic<std::uint64_t> statWarm{0};
std::atomic<std::uint64_t> statCold{0};
std::atomic<std::uint64_t> statFallback{0};
std::atomic<bool> warnedReject{false};
std::atomic<bool> warnedWrite{false};

/** A read-only file mapping; ExecTrace::backing keeps it alive. */
class MappedFile
{
  public:
    static std::shared_ptr<MappedFile>
    map(const std::string &path, bool &missing)
    {
        missing = false;
#if BSISA_HAVE_MMAP
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            missing = errno == ENOENT;
            return nullptr;
        }
        struct ::stat st;
        if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
            ::close(fd);
            return nullptr;
        }
        void *base = ::mmap(nullptr, std::size_t(st.st_size), PROT_READ,
                            MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (base == MAP_FAILED)
            return nullptr;
        auto file = std::make_shared<MappedFile>();
        file->base = static_cast<const std::uint8_t *>(base);
        file->length = std::size_t(st.st_size);
        return file;
#else
        // No mmap on this platform: the store degrades to
        // capture-always (opens report a missing entry).
        missing = true;
        (void)path;
        return nullptr;
#endif
    }

    ~MappedFile()
    {
#if BSISA_HAVE_MMAP
        if (base)
            ::munmap(const_cast<std::uint8_t *>(base), length);
#endif
    }

    const std::uint8_t *data() const { return base; }
    std::size_t size() const { return length; }

  private:
    const std::uint8_t *base = nullptr;
    std::size_t length = 0;
};

/** Check the @p eventCount raw records at @p p against what a
 *  TraceEvent may hold and the span-adjacency invariant of ExecTrace,
 *  reading bytes only, so no record is read as a TraceEvent (whose
 *  `taken` is a bool) until all of them passed. */
bool
validateEvents(const std::uint8_t *p, std::uint64_t eventCount,
               std::uint64_t addrCount)
{
    std::uint32_t pool = 0;
    for (std::uint64_t i = 0; i < eventCount; ++i, p += sizeof(TraceEvent)) {
        std::uint32_t memBegin;
        std::uint16_t spare;
        std::memcpy(&memBegin, p + offsetof(TraceEvent, memBegin),
                    sizeof(memBegin));
        std::memcpy(&spare, p + offsetof(TraceEvent, spare),
                    sizeof(spare));
        if (p[offsetof(TraceEvent, exit)] > unsigned(ExitKind::Halt) ||
            p[offsetof(TraceEvent, taken)] > 1 || spare != 0 ||
            memBegin < pool || (i == 0 && memBegin != 0))
            return false;
        pool = memBegin;
    }
    return pool <= addrCount;
}

/** The magic is the store's and the header checksum holds. */
bool
headerSealed(const TraceFileHeader &h)
{
    return std::memcmp(h.magic, traceStoreMagic, sizeof(h.magic)) == 0 &&
           h.headerChecksum ==
               fnv1a64(&h, offsetof(TraceFileHeader, headerChecksum));
}

/** The header names this binary's format and interpreter versions. */
bool
currentVersion(const TraceFileHeader &h)
{
    return h.formatVersion == traceStoreFormatVersion &&
           h.interpVersionTag == interpVersion;
}

/** The checks a header passes before any of its fields is trusted:
 *  magic and header checksum, format and interpreter versions, and
 *  the content key. */
TraceOpenStatus
checkTraceHeader(const TraceFileHeader &h, const TraceKey &key)
{
    if (!headerSealed(h))
        return TraceOpenStatus::BadHeader;
    if (!currentVersion(h))
        return TraceOpenStatus::BadVersion;
    if (h.moduleDigest != key.moduleDigest || h.maxOps != key.maxOps ||
        h.maxBlocks != key.maxBlocks)
        return TraceOpenStatus::BadKey;
    return TraceOpenStatus::Ok;
}

} // namespace

std::uint64_t
moduleDigest(const Module &module)
{
    // Same bytes as fnv1a64(moduleToText(module)), never held whole.
    Fnv1a64 hasher;
    TextWriter out(hasher);
    writeModule(out, module);
    return out.digest();
}

std::string
TraceKey::fileName() const
{
    const std::uint64_t h = Fnv1a64()
                                .u64(moduleDigest)
                                .u64(maxOps)
                                .u64(maxBlocks)
                                .u64(interpVersion)
                                .u64(traceStoreFormatVersion)
                                .value();
    return hex16(h) + ".bstrace";
}

const char *
traceOpenStatusName(TraceOpenStatus status)
{
    switch (status) {
      case TraceOpenStatus::Ok: return "ok";
      case TraceOpenStatus::NoEntry: return "no entry";
      case TraceOpenStatus::BadHeader: return "bad header";
      case TraceOpenStatus::BadVersion: return "stale version";
      case TraceOpenStatus::BadKey: return "key mismatch";
      case TraceOpenStatus::BadGeometry: return "bad section geometry";
      case TraceOpenStatus::BadChecksum: return "checksum mismatch";
      case TraceOpenStatus::BadEventStream: return "bad event stream";
    }
    return "unknown";
}

bool
encodeTrace(const ExecTrace &trace, const TraceKey &key,
            std::ostream &out)
{
    const std::uint64_t eventBytes = trace.eventCount * sizeof(TraceEvent);
    const std::uint64_t poolBytes =
        trace.memAddrCount * sizeof(std::uint64_t);
    TraceFileHeader h;
    std::memset(&h, 0, sizeof(h));
    std::memcpy(h.magic, traceStoreMagic, sizeof(h.magic));
    h.formatVersion = traceStoreFormatVersion;
    h.interpVersionTag = interpVersion;
    h.moduleDigest = key.moduleDigest;
    h.maxOps = key.maxOps;
    h.maxBlocks = key.maxBlocks;
    h.dynOps = trace.dynOps;
    h.dynBlocks = trace.dynBlocks;
    h.eventCount = trace.eventCount;
    h.eventBytes = eventBytes;
    h.addrCount = trace.memAddrCount;
    h.addrOffset = (traceEventsOffset + eventBytes +
                    traceSectionAlign - 1) &
                   ~(traceSectionAlign - 1);
    h.tailFunc = trace.tailFunc;
    h.tailBlock = trace.tailBlock;
    h.eventChecksum = fnv1a64Words(trace.events, eventBytes);
    h.addrChecksum = fnv1a64Words(trace.memAddrs, poolBytes);
    h.headerChecksum =
        fnv1a64(&h, offsetof(TraceFileHeader, headerChecksum));

    // Both sections go out straight from the trace's own storage.
    static const char padding[traceSectionAlign] = {};
    out.write(reinterpret_cast<const char *>(&h), sizeof(h));
    out.write(padding,
              std::streamsize(traceEventsOffset - sizeof(TraceFileHeader)));
    if (eventBytes)
        out.write(reinterpret_cast<const char *>(trace.events),
                  std::streamsize(eventBytes));
    out.write(padding, std::streamsize(h.addrOffset - traceEventsOffset -
                                       eventBytes));
    if (poolBytes)
        out.write(reinterpret_cast<const char *>(trace.memAddrs),
                  std::streamsize(poolBytes));
    return bool(out);
}

std::vector<std::uint8_t>
encodeTrace(const ExecTrace &trace, const TraceKey &key)
{
    std::ostringstream out;
    encodeTrace(trace, key, out);
    const std::string bytes = out.str();
    return {bytes.begin(), bytes.end()};
}

bool
readTraceHeader(const std::string &path, TraceFileHeader &out)
{
    std::ifstream in(path, std::ios::binary);
    return in &&
           bool(in.read(reinterpret_cast<char *>(&out), sizeof(out)));
}

TraceOpenStatus
readTraceHeader(const std::string &path, const TraceKey &key,
                TraceFileHeader &out)
{
    if (readTraceHeader(path, out))
        return checkTraceHeader(out, key);
    std::error_code ec;
    return std::filesystem::exists(path, ec) ? TraceOpenStatus::BadHeader
                                             : TraceOpenStatus::NoEntry;
}

std::vector<TraceStoreEntryInfo>
listTraceStore(const std::string &dir)
{
    std::vector<TraceStoreEntryInfo> entries;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec)
        return entries;
    for (const auto &de : it) {
        if (!de.is_regular_file(ec) || ec)
            continue;
        const std::string path = de.path().string();
        if (de.path().extension() != ".bstrace")
            continue;
        TraceStoreEntryInfo info;
        info.path = path;
        info.fileBytes = std::uint64_t(de.file_size(ec));
        if (ec)
            info.fileBytes = 0;
        std::memset(&info.header, 0, sizeof(info.header));
        // Another version's header may lay its fields out otherwise,
        // so only a current one is held to the checksum.
        const TraceFileHeader &h = info.header;
        info.headerOk =
            readTraceHeader(path, info.header) &&
            std::memcmp(h.magic, traceStoreMagic, sizeof(h.magic)) == 0 &&
            (!currentVersion(h) || headerSealed(h));
        entries.push_back(std::move(info));
    }
    std::sort(entries.begin(), entries.end(),
              [](const TraceStoreEntryInfo &a,
                 const TraceStoreEntryInfo &b) {
                  return a.path < b.path;
              });
    return entries;
}

TraceOpenStatus
openTraceFile(const std::string &path, const TraceKey &key,
              ExecTrace &out)
{
    bool missing = false;
    const std::shared_ptr<MappedFile> file =
        MappedFile::map(path, missing);
    if (!file)
        return missing ? TraceOpenStatus::NoEntry
                       : TraceOpenStatus::BadHeader;
    const std::uint8_t *base = file->data();
    const std::uint64_t size = file->size();

    if (size < sizeof(TraceFileHeader))
        return TraceOpenStatus::BadHeader;
    TraceFileHeader h;
    std::memcpy(&h, base, sizeof(h));
    if (const TraceOpenStatus status = checkTraceHeader(h, key);
        status != TraceOpenStatus::Ok)
        return status;

    // Every count is bounded, and the event section's size follows
    // from its count, before any section is read.
    if (h.eventCount > maxTraceEntries || h.addrCount > maxTraceEntries ||
        h.eventBytes != h.eventCount * sizeof(TraceEvent))
        return TraceOpenStatus::BadGeometry;
    const std::uint64_t eventsEnd = traceEventsOffset + h.eventBytes;
    if (eventsEnd > h.addrOffset || (h.addrOffset & (traceSectionAlign - 1)) ||
        h.addrOffset > size ||
        h.addrCount > (size - h.addrOffset) / sizeof(std::uint64_t) ||
        h.addrOffset + h.addrCount * sizeof(std::uint64_t) != size)
        return TraceOpenStatus::BadGeometry;

    const std::uint8_t *events = base + traceEventsOffset;
    const std::uint8_t *pool = base + h.addrOffset;
    if (h.eventChecksum != fnv1a64Words(events, h.eventBytes) ||
        h.addrChecksum !=
            fnv1a64Words(pool, h.addrCount * sizeof(std::uint64_t)))
        return TraceOpenStatus::BadChecksum;
    if (!validateEvents(events, h.eventCount, h.addrCount))
        return TraceOpenStatus::BadEventStream;

    // Zero-copy: both pools are the file's pages.
    out.ownedEvents.clear();
    out.ownedAddrs.clear();
    out.events = reinterpret_cast<const TraceEvent *>(events);
    out.eventCount = h.eventCount;
    out.memAddrs = reinterpret_cast<const std::uint64_t *>(pool);
    out.memAddrCount = h.addrCount;
    out.tailFunc = h.tailFunc;
    out.tailBlock = h.tailBlock;
    out.dynOps = h.dynOps;
    out.dynBlocks = h.dynBlocks;
    out.backing = file;
    return TraceOpenStatus::Ok;
}

TraceStore::TraceStore(std::string directory) : dir(std::move(directory))
{
}

TraceStore
TraceStore::fromEnv()
{
    return TraceStore(envString("BSISA_TRACE_DIR", ""));
}

std::string
TraceStore::entryPath(const TraceKey &key) const
{
    return dir + "/" + key.fileName();
}

ExecTrace
TraceStore::load(const Module &module, std::uint64_t digest,
                 Interp::Limits limits, bool *persisted) const
{
    BSISA_ASSERT(enabled());
    const TraceKey key{digest, limits.maxOps, limits.maxBlocks};
    const std::string path = entryPath(key);

    ExecTrace out;
    const TraceOpenStatus status = openTraceFile(path, key, out);
    if (status == TraceOpenStatus::Ok) {
        statWarm.fetch_add(1, std::memory_order_relaxed);
        if (persisted)
            *persisted = true;
        return out;
    }
    if (status != TraceOpenStatus::NoEntry) {
        statFallback.fetch_add(1, std::memory_order_relaxed);
        if (!warnedReject.exchange(true))
            warn("trace store: rejected ", path, " (",
                 traceOpenStatusName(status),
                 "); falling back to live capture and repairing the "
                 "entry");
    } else {
        statCold.fetch_add(1, std::memory_order_relaxed);
    }

    ExecTrace trace = captureTrace(module, limits);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const bool written =
        publishFile(path, [&](std::ostream &file) {
            return encodeTrace(trace, key, file);
        });
    if (!written && !warnedWrite.exchange(true))
        warn("trace store: cannot write ", path,
             " (directory missing or not writable); captures will not "
             "persist");
    if (persisted)
        *persisted = written;
    return trace;
}

TraceStoreStats
TraceStore::stats()
{
    TraceStoreStats s;
    s.warmLoads = statWarm.load(std::memory_order_relaxed);
    s.coldCaptures = statCold.load(std::memory_order_relaxed);
    s.fallbacks = statFallback.load(std::memory_order_relaxed);
    return s;
}

void
TraceStore::resetStats()
{
    statWarm.store(0, std::memory_order_relaxed);
    statCold.store(0, std::memory_order_relaxed);
    statFallback.store(0, std::memory_order_relaxed);
    warnedReject.store(false, std::memory_order_relaxed);
    warnedWrite.store(false, std::memory_order_relaxed);
}

ExecTrace
captureOrLoadTrace(const Module &module, Interp::Limits limits)
{
    const TraceStore store = TraceStore::fromEnv();
    if (!store.enabled())
        return captureTrace(module, limits);
    return store.load(module, moduleDigest(module), limits);
}

ExecTrace
captureOrLoadTrace(const Module &module, std::uint64_t digest,
                   Interp::Limits limits)
{
    const TraceStore store = TraceStore::fromEnv();
    if (!store.enabled())
        return captureTrace(module, limits);
    return store.load(module, digest, limits);
}

} // namespace bsisa
