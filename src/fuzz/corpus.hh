/**
 * @file
 * On-disk fuzz corpus entries.
 *
 * A corpus entry is a pair of files in one directory:
 *   <name>.blockc  the program source (self-contained; generated
 *                  programs seed their own global data), and
 *   <name>.expect  the expected architectural result of the
 *                  conventional interpreter, as "key value" lines.
 *
 * Checked-in entries (tests/data/fuzz_corpus/) are replayed through
 * every oracle by the test_fuzz_corpus suite; the harness writes
 * shrunk reproducers in the same format so a failing program can be
 * promoted into the corpus by copying two files.
 */

#ifndef BSISA_FUZZ_CORPUS_HH
#define BSISA_FUZZ_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/interp.hh"

namespace bsisa
{

struct Module;

namespace fuzz
{

/** Expected conventional-execution result of a corpus program. */
struct Expectation
{
    bool halted = false;
    std::uint64_t exit = 0;
    std::uint64_t dataChecksum = 0;
    std::uint64_t memChecksum = 0;
    std::uint64_t dynOps = 0;
    std::uint64_t dynBlocks = 0;

    bool operator==(const Expectation &) const = default;
};

/** Run the conventional interpreter and record the expectation. */
Expectation computeExpectation(const Module &module,
                               Interp::Limits limits);

/** Serialize / parse the .expect sidecar format. */
std::string formatExpectation(const Expectation &e);
bool parseExpectation(const std::string &text, Expectation &out);

/** Write <dir>/<name>.blockc + .expect; false on I/O failure. */
bool writeCorpusEntry(const std::string &dir, const std::string &name,
                      const std::string &source, const Expectation &e);

/** Read one entry back; false when either file is missing/bad. */
bool readCorpusEntry(const std::string &dir, const std::string &name,
                     std::string &source, Expectation &out);

/** Entry names (sorted): basenames of the .blockc files in @p dir. */
std::vector<std::string> listCorpus(const std::string &dir);

} // namespace fuzz
} // namespace bsisa

#endif // BSISA_FUZZ_CORPUS_HH
