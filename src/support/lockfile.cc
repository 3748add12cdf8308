/**
 * @file
 * File-lease implementation (flock on a held descriptor) and the
 * stores' atomic file publish.
 */

#include "support/lockfile.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>

#include "support/parse.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
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
        return false;  // kill() would probe our own process group
    return ::kill(pid_t(pid), 0) == 0 || errno != ESRCH;
#else
    (void)pid;
    return true;
#endif
}

bool
FileLease::tryAcquire(const std::string &path)
{
    release();
#if BSISA_HAVE_LEASES
    // A holder's release() unlinks the file before it drops the lock,
    // so the inode locked here may no longer be the one at @p path:
    // then open afresh.  Each retry needs another holder's whole
    // release in between, so a few attempts suffice.
    for (int attempt = 0; attempt < 8; ++attempt) {
        const int fd =
            ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd < 0)
            return false;
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            ::close(fd);
            return false;
        }
        struct stat locked, named;
        if (::fstat(fd, &locked) != 0 ||
            ::stat(path.c_str(), &named) != 0 ||
            locked.st_dev != named.st_dev ||
            locked.st_ino != named.st_ino) {
            ::close(fd);
            continue;
        }
        path_ = path;
        fd_ = fd;
        char label[48];
        const int len = std::snprintf(
            label, sizeof(label), "pid %llu\n",
            static_cast<unsigned long long>(currentProcessId()));
        if (::ftruncate(fd, 0) == 0 &&
            ::write(fd, label, std::size_t(len)) == len)
            return true;
        release();
        return false;
    }
#else
    (void)path;
#endif
    return false;
}

void
FileLease::release()
{
    if (path_.empty())
        return;
    std::remove(path_.c_str());
#if BSISA_HAVE_LEASES
    ::close(fd_);
#endif
    fd_ = -1;
    path_.clear();
}

} // namespace bsisa
