/**
 * @file
 * File leases — the results store's writer lock — and the atomic
 * temp-file-then-rename publish the trace store, the results store
 * and the plan markers share.
 *
 * A lease is claimed by creating its file with O_CREAT|O_EXCL (atomic
 * on every POSIX filesystem); whoever holds it is the one writer of
 * what it guards, and others fail to acquire it.
 *
 * Crash recovery: the lease file records the holder's pid, written
 * atomically with the file itself (temp + link), so a lease can never
 * be observed without a parseable holder — a creator killed at any
 * instant leaves either no lease or a complete one.  When acquisition
 * fails, the prober reads that pid and checks liveness with
 * kill(pid, 0); a dead holder's lease is *stolen* by renaming it to a
 * unique trash name first — rename is atomic, and the breaker
 * verifies the trashed content still names the dead holder (restoring
 * it when it grabbed a freshly re-created lease instead), so one of N
 * concurrent breakers wins the steal — and then retrying the
 * exclusive create.  A live holder's lease is honored; a malformed
 * (foreign/torn) lease is honored for a short mtime grace window and
 * then treated as stale.
 *
 * Non-POSIX builds degrade to "never acquire": a results-store writer
 * there fails at once with the lock error (the store and plan layers
 * are otherwise platform-neutral, matching the mmap degradation in
 * sim/trace_store.cc).
 */

#ifndef BSISA_SUPPORT_LOCKFILE_HH
#define BSISA_SUPPORT_LOCKFILE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace bsisa
{

/**
 * One lease.  Move-only RAII: releasing (or destroying) a
 * held lease unlinks its file.  The path should live on the same
 * filesystem as the store it guards so create/rename are atomic.
 */
class FileLease
{
  public:
    FileLease() = default;
    ~FileLease() { release(); }

    FileLease(FileLease &&other) noexcept { swap(other); }
    FileLease &operator=(FileLease &&other) noexcept
    {
        release();
        swap(other);
        return *this;
    }
    FileLease(const FileLease &) = delete;
    FileLease &operator=(const FileLease &) = delete;

    /**
     * Try to acquire the lease at @p path.  Returns true and holds on
     * success.  A lease whose recorded holder is a dead process is
     * broken and re-acquired transparently.  Never blocks.
     */
    bool tryAcquire(const std::string &path);

    /** Unlink the lease file if held; safe to call when not held. */
    void release();

    bool held() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

  private:
    void swap(FileLease &other) noexcept { path_.swap(other.path_); }

    std::string path_;  //!< empty when not held
};

/** @p text as a process id: a decimal in [1, the largest pid_t], or
 *  0 when it is not one (a sign, a zero, a value a pid cannot hold). */
std::uint64_t parsePid(std::string_view text);

/** Read the holder pid recorded in a lease file; 0 when absent or
 *  malformed (lock errors, tests, `bsisa-sweep status`). */
std::uint64_t leaseHolderPid(const std::string &path);

/** How long after its last write a malformed lease (no parseable
 *  holder pid) is honoured before it is broken as stale. */
inline constexpr std::chrono::seconds malformedLeaseGrace{5};

/** This process's id, or 0 on platforms without one.  Tags temp and
 *  lease files so concurrent writers never collide. */
std::uint64_t currentProcessId();

/** @p v as 16 lower-case hex digits (store file names, unit keys). */
std::string hex16(std::uint64_t v);

/**
 * Atomically publish @p bytes as @p path: write a pid-tagged sibling
 * temp file, then rename it over @p path, so a reader sees the old
 * file or the complete new one, never a partial write.  False (and
 * no temp left behind) on failure.
 */
bool publishFile(const std::string &path, std::string_view bytes);

/** The same publication, with the content streamed into the temp
 *  file by @p write; false when @p write returns false or the stream
 *  fails. */
bool publishFile(const std::string &path,
                 const std::function<bool(std::ostream &)> &write);

/** True when @p pid names a live process on this host.  Conservative:
 *  unknown (e.g. EPERM) counts as alive, so leases are only broken on
 *  a definite ESRCH. */
bool processAlive(std::uint64_t pid);

} // namespace bsisa

#endif // BSISA_SUPPORT_LOCKFILE_HH
