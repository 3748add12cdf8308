/**
 * @file
 * Results-store implementation: framed record files, the writer lock,
 * merge-on-refresh indexing, torn-tail repair of the append log, and
 * deterministic compaction.
 */

#include "exp/result_store.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include "sim/interp.hh"
#include "support/digest.hh"
#include "support/logging.hh"
#include "support/parse.hh"

namespace bsisa
{

namespace
{

// The record is a padding-free POD: every PairResult member is a
// 64-bit scalar (SimResult = 14 uint64 + 2 x CacheStats, EnlargeStats
// = 6 size_t), so the layout below is exact or the asserts fire and
// force a resultStoreFormatVersion bump.
static_assert(std::is_trivially_copyable_v<ResultRecord>);
static_assert(sizeof(SimResult) == 144);
static_assert(sizeof(PairResult) == 2 * sizeof(SimResult) +
                                        sizeof(EnlargeStats) + 24);
static_assert(sizeof(ResultRecord) == 32 + sizeof(PairResult),
              "on-disk record layout changed; bump "
              "resultStoreFormatVersion");

/** 16-byte log/snapshot file header. */
struct ShardHeader
{
    char magic[8];
    std::uint32_t formatVersion;
    std::uint32_t reserved;
};
static_assert(sizeof(ShardHeader) == 16);

/** 16-byte per-record frame header preceding the payload. */
struct FrameHeader
{
    std::uint32_t payloadBytes;
    std::uint32_t frameMagic;
    std::uint64_t checksum;  //!< fnv1a64Words over the payload
};
static_assert(sizeof(FrameHeader) == 16);

constexpr std::uint32_t resultFrameMagic = 0x30434552;  // "REC0"

std::atomic<bool> warnedDuplicate{false};
std::atomic<bool> warnedWrite{false};

constexpr char snapshotName[] = "snapshot.bsr";
constexpr char logName[] = "log.bsr";

/** Call @p visit on each intact record of a record file's @p bytes,
 *  in file order, up to the first torn or corrupt frame.  Returns the
 *  length of the whole-frame prefix (header included), or 0 when the
 *  header is not this version's. */
template <typename Visit>
std::size_t
walkFrames(const std::string &bytes, Visit &&visit)
{
    if (bytes.size() < sizeof(ShardHeader))
        return 0;
    ShardHeader h;
    std::memcpy(&h, bytes.data(), sizeof(h));
    if (std::memcmp(h.magic, resultStoreMagic, sizeof(h.magic)) != 0 ||
        h.formatVersion != resultStoreFormatVersion)
        return 0;
    std::size_t pos = sizeof(ShardHeader);
    while (bytes.size() - pos >= sizeof(FrameHeader)) {
        FrameHeader f;
        std::memcpy(&f, bytes.data() + pos, sizeof(f));
        if (f.frameMagic != resultFrameMagic ||
            f.payloadBytes != sizeof(ResultRecord) ||
            bytes.size() - pos - sizeof(f) < f.payloadBytes)
            break;
        const char *payload = bytes.data() + pos + sizeof(f);
        if (f.checksum != fnv1a64Words(payload, f.payloadBytes))
            break;
        ResultRecord record;
        std::memcpy(&record, payload, sizeof(record));
        visit(record);
        pos += sizeof(f) + f.payloadBytes;
    }
    return pos;
}

void
appendShardHeader(std::string &out)
{
    ShardHeader h;
    std::memset(&h, 0, sizeof(h));
    std::memcpy(h.magic, resultStoreMagic, sizeof(h.magic));
    h.formatVersion = resultStoreFormatVersion;
    out.append(reinterpret_cast<const char *>(&h), sizeof(h));
}

void
appendFrame(std::string &out, const ResultRecord &record)
{
    FrameHeader f;
    f.payloadBytes = sizeof(ResultRecord);
    f.frameMagic = resultFrameMagic;
    f.checksum = fnv1a64Words(&record, sizeof(record));
    out.append(reinterpret_cast<const char *>(&f), sizeof(f));
    out.append(reinterpret_cast<const char *>(&record),
               sizeof(record));
}

} // namespace

ResultRecord
makeResultRecord(std::uint64_t unitKey, std::uint64_t moduleDigest,
                 std::uint64_t configDigest, const PairResult &pair)
{
    ResultRecord record{};  // value-init: no indeterminate padding
    record.unitKey = unitKey;
    record.moduleDigest = moduleDigest;
    record.configDigest = configDigest;
    record.interpVersionTag = interpVersion;
    record.formatVersion = resultStoreFormatVersion;
    record.pair = pair;
    return record;
}

ResultStore::ResultStore(std::string directory)
    : dir(std::move(directory))
{
    // Drop trailing slashes, so the paths built as dir + "/x" that
    // warnings and errors print hold no doubled slash.
    while (dir.size() > 1 && dir.back() == '/')
        dir.pop_back();
}

ResultStore::~ResultStore() = default;

const ResultRecord *
ResultStore::find(std::uint64_t unitKey) const
{
    const auto it = index.find(unitKey);
    return it == index.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t>
ResultStore::keys() const
{
    std::vector<std::uint64_t> out;
    out.reserve(index.size());
    for (const auto &kv : index)
        out.push_back(kv.first);
    return out;
}

ResultScanStats
ResultStore::refresh()
{
    ResultScanStats stats;
    index.clear();

    // The snapshot, then the log: a crash between compaction's
    // publish and its unlink leaves both, whose duplicates are
    // byte-identical, and the first record per key wins.
    for (const char *name : {snapshotName, logName}) {
        const std::string path = dir + "/" + name;
        std::error_code ec;
        if (!std::filesystem::exists(path, ec))
            continue;
        std::string bytes;
        const auto visit = [&](const ResultRecord &record) {
            const auto [at, inserted] =
                index.emplace(record.unitKey, record);
            if (inserted)
                return;
            ++stats.duplicates;
            if (std::memcmp(&at->second, &record, sizeof(record)) != 0 &&
                !warnedDuplicate.exchange(true)) {
                warn("result store: byte-differing duplicate for unit "
                     "key ",
                     record.unitKey, " in ", path,
                     "; keeping the first record seen");
            }
        };
        const std::size_t intact =
            readWholeFile(path, bytes) ? walkFrames(bytes, visit) : 0;
        if (intact == 0) {
            ++stats.badShards;
            continue;
        }
        ++stats.shardFiles;
        if (intact < bytes.size())
            ++stats.tornTails;
    }
    stats.records = index.size();
    return stats;
}

std::string
ResultStore::foreignFile() const
{
    for (const char *name : {logName, snapshotName}) {
        const std::string path = dir + "/" + name;
        std::ifstream in(path, std::ios::binary);
        ShardHeader h;
        if (!in.read(reinterpret_cast<char *>(&h), sizeof(h)))
            continue;  // absent, or a torn header a writer starts over
        const std::string ours =
            ", this binary's is " +
            std::to_string(resultStoreFormatVersion) +
            "; refusing to overwrite it";
        if (std::memcmp(h.magic, resultStoreMagic, sizeof(h.magic)) != 0)
            return path + " is not a results-store file" + ours;
        if (h.formatVersion != resultStoreFormatVersion)
            return path + " is results-store format version " +
                   std::to_string(h.formatVersion) + ours;
    }
    return "";
}

bool
ResultStore::lockWriter(std::string &error)
{
    const std::string path = lockPath();
    if (writer.held())
        return true;
    if (writer.tryAcquire(path)) {
        // A log or snapshot another version wrote stays as it is: a
        // writer would truncate the one and republish the other with
        // only this version's records.
        error = foreignFile();
        if (error.empty())
            return true;
        writer.release();
        return false;
    }
    const std::uint64_t holder = leaseHolderPid(path);
    if (holder != 0)
        error = "results store " + dir + " has a live writer, pid " +
                std::to_string(holder) + " (" + path + ")";
    else if (std::filesystem::exists(path))
        error = "results store " + dir +
                " is locked by another writer (" + path +
                " names no pid)";
    else
        error = "cannot create " + path;
    return false;
}

bool
ResultStore::append(const ResultRecord &record)
{
    if (!log.is_open()) {
        std::string error;
        if (!lockWriter(error)) {
            if (!warnedWrite.exchange(true))
                warn("result store: ", error,
                     "; results will not persist");
            return false;
        }
        // Resume after the last whole frame: a record appended behind
        // a torn one would be invisible to every reader.  A log with a
        // torn header starts over (lockWriter refused a whole header
        // of another version).
        const std::string path = dir + "/" + logName;
        std::string bytes, header;
        const std::size_t intact =
            readWholeFile(path, bytes)
                ? walkFrames(bytes, [](const ResultRecord &) {})
                : 0;
        std::error_code ec;
        if (intact == 0)
            appendShardHeader(header);
        else if (intact < bytes.size())
            std::filesystem::resize_file(path, intact, ec);
        log.open(path, std::ios::binary |
                           (intact == 0 ? std::ios::trunc
                                        : std::ios::app));
        if (ec || !log ||
            !log.write(header.data(),
                       std::streamsize(header.size()))) {
            log.close();
            if (!warnedWrite.exchange(true))
                warn("result store: cannot write to ", path,
                     "; results will not persist");
            return false;
        }
    }
    // One buffered write + flush per frame: after append() returns
    // the frame is in the kernel, so killing the process cannot tear
    // it; a kill *during* the write leaves a checksummed torn tail
    // that readers drop and the next writer truncates.
    std::string frame;
    appendFrame(frame, record);
    if (!log.write(frame.data(), std::streamsize(frame.size())) ||
        !log.flush())
        return false;
    index.emplace(record.unitKey, record);
    return true;
}

bool
ResultStore::compact()
{
    std::string error;
    if (!lockWriter(error)) {
        warn("result store: ", error, "; not compacting");
        return false;
    }
    // The log is about to be merged and unlinked; a later append
    // starts a fresh one.
    if (log.is_open()) {
        log.close();
        log = std::ofstream();
    }
    refresh();

    std::string bytes;
    appendShardHeader(bytes);
    for (const auto &kv : index)
        appendFrame(bytes, kv.second);

    const std::string snapshot = dir + "/" + snapshotName;
    if (!publishFile(snapshot, bytes))
        return false;
    std::remove((dir + "/" + logName).c_str());
    return true;
}

} // namespace bsisa
