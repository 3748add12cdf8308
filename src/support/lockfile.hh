/**
 * @file
 * File leases — the results store's writer lock — and the atomic
 * temp-file-then-rename publish the trace store, the results store
 * and the plan markers share.
 *
 * A lease is an flock(LOCK_EX|LOCK_NB) on its file, held through a
 * close-on-exec descriptor for the lease's whole life: the kernel
 * decides who holds it and drops it when the holder exits, however it
 * dies.  The holder writes `pid N` into the file, but only as a label
 * for error texts and `bsisa-sweep status`: no reader trusts the
 * file's bytes to decide whether the lease is held.
 *
 * Non-POSIX builds degrade to "never acquire": a results-store writer
 * there fails at once with the lock error (the store and plan layers
 * are otherwise platform-neutral, matching the mmap degradation in
 * sim/trace_store.cc).
 */

#ifndef BSISA_SUPPORT_LOCKFILE_HH
#define BSISA_SUPPORT_LOCKFILE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>

namespace bsisa
{

/**
 * One lease.  Move-only RAII: releasing (or destroying) a held lease
 * unlinks its file, then drops the lock.
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
     * Try to acquire the lease at @p path, creating its file when
     * missing.  Returns true and holds on success; false when another
     * descriptor holds the lock or the file cannot be opened or
     * labelled.  Never blocks.
     */
    bool tryAcquire(const std::string &path);

    /** Unlink the lease file, then drop the lock, if held; safe to
     *  call when not held. */
    void release();

    bool held() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

  private:
    void
    swap(FileLease &other) noexcept
    {
        path_.swap(other.path_);
        std::swap(fd_, other.fd_);
    }

    std::string path_;  //!< empty when not held
    int fd_ = -1;       //!< the locked descriptor while held
};

/** @p text as a process id: a decimal in [1, the largest pid_t], or
 *  0 when it is not one (a sign, a zero, a value a pid cannot hold). */
std::uint64_t parsePid(std::string_view text);

/** Read the holder pid recorded in a lease file; 0 when absent or
 *  malformed (lock errors, tests, `bsisa-sweep status`). */
std::uint64_t leaseHolderPid(const std::string &path);

/** This process's id, or 0 on platforms without one.  Tags temp files
 *  so concurrent writers never collide, and labels held leases. */
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

/** True when @p pid names a live process on this host (`bsisa-sweep
 *  status`).  Unknown (e.g. EPERM) counts as alive; 0 names none. */
bool processAlive(std::uint64_t pid);

} // namespace bsisa

#endif // BSISA_SUPPORT_LOCKFILE_HH
