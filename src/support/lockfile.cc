/**
 * @file
 * File-lease implementation (exclusive create + pid-based stale-lease
 * breaking) and the stores' atomic file publish.
 */

#include "support/lockfile.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/parse.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#define BSISA_HAVE_LEASES 1
#else
#define BSISA_HAVE_LEASES 0
#endif

namespace bsisa
{

namespace
{

std::atomic<std::uint64_t> uniqueSeq{0};

/** `<path><tag><pid>-<seq>`: unique across processes and threads. */
std::string
uniqueSibling(const std::string &path, const char *tag)
{
    return path + tag + std::to_string(currentProcessId()) + "-" +
           std::to_string(
               uniqueSeq.fetch_add(1, std::memory_order_relaxed));
}

#if BSISA_HAVE_LEASES

/**
 * One exclusive-create attempt.  The "pid <pid>\n" line is written to
 * a private temp file which is then link()ed into place, so creation
 * and content are one atomic step: no observer can ever see a lease
 * without a parseable holder pid, however the creator dies.  (A
 * SIGKILL between the temp write and the link leaves only an inert
 * `.new-*` temp, never a malformed lease.)  On failure errno is
 * preserved from the failing call; an existing lease reads as EEXIST.
 */
bool
createExclusive(const std::string &path)
{
    const std::string temp = uniqueSibling(path, ".new-");
    const int fd = ::open(temp.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                          0644);
    if (fd < 0)
        return false;
    char buf[48];
    const int len = std::snprintf(
        buf, sizeof(buf), "pid %llu\n",
        static_cast<unsigned long long>(currentProcessId()));
    const bool wrote = ::write(fd, buf, std::size_t(len)) == len;
    ::close(fd);
    if (!wrote) {
        std::remove(temp.c_str());
        errno = EIO;
        return false;
    }
    const bool linked = ::link(temp.c_str(), path.c_str()) == 0;
    const int linkErrno = errno;
    std::remove(temp.c_str());
    errno = linkErrno;
    return linked;
}

/** A lease without a parseable pid line is foreign or torn.  Honor it
 *  briefly (it may be a mid-publish artifact on a filesystem we did
 *  not anticipate), then treat it as stale — otherwise one such file
 *  would lock its store forever. */
bool
malformedLeaseExpired(const std::string &path)
{
    std::error_code ec;
    const auto stamp = std::filesystem::last_write_time(path, ec);
    if (ec)
        return false;  // vanished: the next acquire attempt decides
    return std::filesystem::file_time_type::clock::now() - stamp >
           malformedLeaseGrace;
}

#endif // BSISA_HAVE_LEASES

} // namespace

std::uint64_t
currentProcessId()
{
#if BSISA_HAVE_LEASES
    return std::uint64_t(::getpid());
#else
    return 0;
#endif
}

std::string
hex16(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
publishFile(const std::string &path, std::string_view bytes)
{
    return publishFile(path, [bytes](std::ostream &out) {
        return bool(
            out.write(bytes.data(), std::streamsize(bytes.size())));
    });
}

bool
publishFile(const std::string &path,
            const std::function<bool(std::ostream &)> &write)
{
    const std::string temp = uniqueSibling(path, ".tmp-");
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        if (!out || !write(out) || !out.flush()) {
            out.close();
            std::remove(temp.c_str());
            return false;
        }
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        return false;
    }
    return true;
}

std::uint64_t
parsePid(std::string_view text)
{
#if BSISA_HAVE_LEASES
    pid_t pid = 0;
#else
    int pid = 0;
#endif
    return parseNumber(text, pid) && pid > 0 ? std::uint64_t(pid) : 0;
}

std::uint64_t
leaseHolderPid(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (!std::getline(in, line) || !line.starts_with("pid "))
        return 0;
    return parsePid(std::string_view(line).substr(4));
}

bool
processAlive(std::uint64_t pid)
{
#if BSISA_HAVE_LEASES
    if (pid == 0)
        return true;  // malformed lease: assume live, honor it
    if (::kill(pid_t(pid), 0) == 0)
        return true;
    return errno != ESRCH;
#else
    (void)pid;
    return true;
#endif
}

bool
FileLease::tryAcquire(const std::string &path)
{
#if BSISA_HAVE_LEASES
    release();
    if (createExclusive(path)) {
        path_ = path;
        return true;
    }
    if (errno != EEXIST)
        return false;

    // The lease exists.  Break it only if its holder is provably
    // dead (or the file is malformed and older than the grace
    // window): rename to a unique trash name first so one of N
    // concurrent breakers wins (rename is atomic; the losers' renames
    // fail with ENOENT), then retry the exclusive create once.
    const std::uint64_t holder = leaseHolderPid(path);
    if (holder != 0) {
        if (processAlive(holder))
            return false;
    } else if (!malformedLeaseExpired(path)) {
        return false;
    }
    const std::string trash = uniqueSibling(path, ".trash-");
    if (std::rename(path.c_str(), trash.c_str()) != 0)
        return false;  // a peer won the steal (or holder released)
    // The rename alone is not proof of winning: a slow breaker can
    // rename the *fresh* lease a faster breaker just re-created, not
    // the stale one.  The trashed file's content tells the two apart
    // — if it no longer names the dead holder we observed, put it
    // back (link is atomic and fails if yet another lease appeared
    // meanwhile) and report the lease as held.
    if (leaseHolderPid(trash) != holder) {
        (void)!::link(trash.c_str(), path.c_str());
        std::remove(trash.c_str());
        return false;
    }
    std::remove(trash.c_str());
    if (createExclusive(path)) {
        path_ = path;
        return true;
    }
    return false;
#else
    (void)path;
    return false;
#endif
}

void
FileLease::release()
{
    if (path_.empty())
        return;
    std::remove(path_.c_str());
    path_.clear();
}

} // namespace bsisa
