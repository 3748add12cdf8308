/**
 * @file
 * Results-store implementation: framed shard files, merge-on-refresh
 * indexing with torn-tail repair, and deterministic compaction.
 */

#include "exp/result_store.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <type_traits>

#include "sim/interp.hh"
#include "support/digest.hh"
#include "support/lockfile.hh"
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

/** 16-byte shard/snapshot file header. */
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

bool
isSnapshotPath(const std::string &path)
{
    // Compare by filename, never by raw string: the same file can be
    // spelled `results/snapshot.bsr` or `results//snapshot.bsr`
    // depending on how the directory was given.
    return std::filesystem::path(path).filename() == snapshotName;
}

/** The writer pid embedded in a `shard-<pid>-<salt>.bsr` name, or 0
 *  when the name does not carry one (snapshot, foreign files). */
std::uint64_t
shardWriterPid(const std::string &path)
{
    const std::string name =
        std::filesystem::path(path).filename().string();
    constexpr std::string_view prefix = "shard-";
    if (!name.starts_with(prefix))
        return 0;
    const std::size_t end = name.find('-', prefix.size());
    return end == std::string::npos
               ? 0
               : parsePid(std::string_view(name).substr(
                     prefix.size(), end - prefix.size()));
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
    // Normalize away trailing slashes so paths built as dir + "/x"
    // match what directory_iterator yields for the same files.
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
    scanned.clear();

    // Snapshot first, then shards sorted by name: scan order decides
    // nothing semantically (first record per key wins and duplicates
    // are byte-identical), but a deterministic order keeps the
    // duplicate counters stable for tests.
    std::vector<std::string> files;
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (!ec) {
        for (const auto &de : it) {
            if (!de.is_regular_file(ec) || ec)
                continue;
            if (de.path().extension() == ".bsr")
                files.push_back(de.path().string());
        }
    }
    std::sort(files.begin(), files.end(),
              [&](const std::string &a, const std::string &b) {
                  const bool sa = isSnapshotPath(a);
                  const bool sb = isSnapshotPath(b);
                  if (sa != sb)
                      return sa;
                  return a < b;
              });

    for (const std::string &path : files) {
        std::string bytes;
        if (!readWholeFile(path, bytes) ||
            bytes.size() < sizeof(ShardHeader)) {
            ++stats.badShards;
            continue;
        }
        ShardHeader h;
        std::memcpy(&h, bytes.data(), sizeof(h));
        if (std::memcmp(h.magic, resultStoreMagic, sizeof(h.magic)) !=
                0 ||
            h.formatVersion != resultStoreFormatVersion) {
            ++stats.badShards;
            continue;
        }
        ++stats.shardFiles;
        scanned.push_back(path);

        std::size_t pos = sizeof(ShardHeader);
        while (pos < bytes.size()) {
            if (bytes.size() - pos < sizeof(FrameHeader)) {
                ++stats.tornTails;
                break;
            }
            FrameHeader f;
            std::memcpy(&f, bytes.data() + pos, sizeof(f));
            if (f.frameMagic != resultFrameMagic ||
                f.payloadBytes != sizeof(ResultRecord) ||
                bytes.size() - pos - sizeof(f) < f.payloadBytes) {
                ++stats.tornTails;
                break;
            }
            const char *payload = bytes.data() + pos + sizeof(f);
            if (f.checksum != fnv1a64Words(payload, f.payloadBytes)) {
                ++stats.tornTails;
                break;
            }
            ResultRecord record;
            std::memcpy(&record, payload, sizeof(record));
            pos += sizeof(f) + f.payloadBytes;

            const auto [at, inserted] =
                index.emplace(record.unitKey, record);
            if (!inserted) {
                ++stats.duplicates;
                if (std::memcmp(&at->second, &record,
                                sizeof(record)) != 0 &&
                    !warnedDuplicate.exchange(true)) {
                    warn("result store: byte-differing duplicate for "
                         "unit key ",
                         record.unitKey, " in ", path,
                         "; keeping the first record seen");
                }
            }
        }
    }
    stats.records = index.size();
    return stats;
}

bool
ResultStore::append(const ResultRecord &record)
{
    if (!shard.is_open()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        // One shard per process: the name embeds the pid plus a
        // random salt so re-executed pids and non-unix builds (pid
        // tag 0) never collide on a shared directory.
        std::random_device rd;
        shardPath = dir + "/shard-" +
                    std::to_string(currentProcessId()) + "-" +
                    std::to_string(std::uint64_t(rd()) << 32 | rd()) +
                    ".bsr";
        shard.open(shardPath, std::ios::binary | std::ios::trunc);
        std::string header;
        appendShardHeader(header);
        if (!shard ||
            !shard.write(header.data(),
                         std::streamsize(header.size()))) {
            shard.close();
            shardPath.clear();
            if (!warnedWrite.exchange(true))
                warn("result store: cannot write to ", dir,
                     "; results will not persist");
            return false;
        }
    }
    // One buffered write + flush per frame: after append() returns
    // the frame is in the kernel, so killing the process cannot tear
    // it; a kill *during* the write leaves a checksummed torn tail
    // that the next refresh() drops.
    std::string frame;
    appendFrame(frame, record);
    if (!shard.write(frame.data(), std::streamsize(frame.size())) ||
        !shard.flush())
        return false;
    index.emplace(record.unitKey, record);
    return true;
}

bool
ResultStore::compact()
{
    refresh();
    // Our own shard is about to be merged and unlinked; close it so
    // a later append starts a fresh one.
    if (shard.is_open()) {
        shard.close();
        shard = std::ofstream();
        shardPath.clear();
    }

    std::string bytes;
    appendShardHeader(bytes);
    for (const auto &kv : index)
        appendFrame(bytes, kv.second);

    const std::string snapshot = dir + "/" + snapshotName;
    if (!publishFile(snapshot, bytes))
        return false;
    std::vector<std::string> kept;
    kept.push_back(snapshot);
    for (const std::string &path : scanned) {
        if (isSnapshotPath(path))
            continue;
        // Keep shards whose writer is a live peer process: it still
        // holds the file open and will append more records, which an
        // unlink would silently divert to an orphaned inode.  Its
        // already-merged records stay on disk twice until the writer
        // exits and a later compaction folds them (duplicates are
        // byte-identical and first-record-wins at refresh).  Our own
        // shard was closed above, and a dead writer's shard is fully
        // merged, so both are safe to unlink.
        const std::uint64_t writer = shardWriterPid(path);
        if (writer != 0 && writer != currentProcessId() &&
            processAlive(writer)) {
            kept.push_back(path);
            continue;
        }
        std::remove(path.c_str());
    }
    scanned = std::move(kept);
    return true;
}

} // namespace bsisa
