/**
 * @file
 * Run part of a test in a forked child process.
 *
 * The figure drivers keep per-process memos of the suite's traces and
 * pair results (exp/figures.cc), so a second driver call in the same
 * process reads what the first one computed.  A test that compares
 * two runs, or that counts the trace loads of a run, gives each run
 * its own process through runInChild.
 */

#ifndef BSISA_TESTS_CHILD_PROCESS_HH
#define BSISA_TESTS_CHILD_PROCESS_HH

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <functional>
#include <string>
#include <vector>

namespace bsisatest
{

/**
 * Fork, run @p body in the child and return the strings it returned
 * (none may contain a NUL byte).  The child does nothing else: it
 * exits as soon as @p body returns, so @p body reports through its
 * result, not through gtest assertions.  A child that throws or dies
 * fails the calling test and yields an empty list.
 */
inline std::vector<std::string>
runInChild(const std::function<std::vector<std::string>()> &body)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        ADD_FAILURE() << "pipe failed";
        return {};
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        ADD_FAILURE() << "fork failed";
        ::close(fds[0]);
        ::close(fds[1]);
        return {};
    }
    if (pid == 0) {
        ::close(fds[0]);
        int code = 0;
        try {
            std::string bytes;
            for (const std::string &s : body())
                bytes += s + '\0';
            for (std::size_t done = 0; done < bytes.size();) {
                const ssize_t n = ::write(fds[1], bytes.data() + done,
                                          bytes.size() - done);
                if (n <= 0) {
                    code = 2;
                    break;
                }
                done += std::size_t(n);
            }
        } catch (...) {
            code = 1;
        }
        ::_exit(code);
    }

    ::close(fds[1]);
    std::string bytes;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
        bytes.append(buf, std::size_t(n));
    ::close(fds[0]);
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        ADD_FAILURE() << "child process failed (status " << status
                      << ")";
        return {};
    }
    std::vector<std::string> out;
    for (std::size_t begin = 0, end;
         (end = bytes.find('\0', begin)) != std::string::npos;
         begin = end + 1)
        out.push_back(bytes.substr(begin, end - begin));
    return out;
}

} // namespace bsisatest

#endif // BSISA_TESTS_CHILD_PROCESS_HH
