/**
 * @file
 * Trace-store inspector.
 *
 * Usage:
 *   bsisa-tracedump <entry.bstrace>...   dump header + verify entries
 *   bsisa-tracedump --dir <store-dir>    dump every entry in a store
 *   bsisa-tracedump --verify ...         quiet; exit 1 on any bad entry
 *   bsisa-tracedump --suite-key          print the content key of the
 *                                        benchmark suite at the current
 *                                        BSISA_SCALE (CI cache keying)
 *   bsisa-tracedump --list [dir]         one-line-per-entry listing of
 *                                        a store (key, benchmark,
 *                                        events, bytes); defaults to
 *                                        BSISA_TRACE_DIR
 *
 * Verification re-runs the exact open path the simulator uses (mmap,
 * header + section checksums, event-stream decode), using the entry's
 * own header as the expected key, so a "ok" entry is by construction
 * loadable.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "exp/figures.hh"
#include "exp/service.hh"
#include "sim/trace_store.hh"
#include "support/digest.hh"
#include "support/parallel.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: bsisa-tracedump [--verify] <entry>...\n"
                 "       bsisa-tracedump [--verify] --dir <store-dir>\n"
                 "       bsisa-tracedump --suite-key\n"
                 "       bsisa-tracedump --list [store-dir]\n");
    return 2;
}

/** Full open-path verification keyed by the entry's own header. */
TraceOpenStatus
verifyEntry(const std::string &path, const TraceFileHeader &h,
            ExecTrace &out)
{
    TraceKey key;
    key.moduleDigest = h.moduleDigest;
    key.maxOps = h.maxOps;
    key.maxBlocks = h.maxBlocks;
    return openTraceFile(path, key, out);
}

int
dumpEntry(const std::string &path, bool quiet)
{
    TraceFileHeader h;
    if (!readTraceHeader(path, h)) {
        std::fprintf(stderr, "%s: cannot read header\n", path.c_str());
        return 1;
    }
    ExecTrace trace;
    const TraceOpenStatus status = verifyEntry(path, h, trace);
    const bool ok = status == TraceOpenStatus::Ok;
    if (quiet) {
        if (!ok)
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         traceOpenStatusName(status));
        return ok ? 0 : 1;
    }

    std::printf("%s\n", path.c_str());
    std::printf("  magic           %.8s\n", h.magic);
    std::printf("  format version  %u (interp %u)\n", h.formatVersion,
                h.interpVersionTag);
    std::printf("  module digest   %016" PRIx64 "\n", h.moduleDigest);
    std::printf("  max ops         %" PRIu64 "\n", h.maxOps);
    std::printf("  max blocks      %" PRIu64 "\n", h.maxBlocks);
    std::printf("  dyn ops         %" PRIu64 "\n", h.dynOps);
    std::printf("  dyn blocks      %" PRIu64 "\n", h.dynBlocks);
    std::printf("  events          %" PRIu64 " (%" PRIu64
                " bytes varint, %.2f B/event)\n",
                h.eventCount, h.eventBytes,
                h.eventCount ? double(h.eventBytes) / double(h.eventCount)
                             : 0.0);
    std::printf("  address pool    %" PRIu64 " addrs at offset %" PRIu64
                "\n",
                h.addrCount, h.addrOffset);
    std::printf("  checksums       header=%016" PRIx64
                " events=%016" PRIx64 " addrs=%016" PRIx64 "\n",
                h.headerChecksum, h.eventChecksum, h.addrChecksum);
    std::printf("  verify          %s\n", traceOpenStatusName(status));
    if (ok) {
        const std::size_t inMem = trace.sizeBytes();
        std::uintmax_t onDisk = 0;
        std::error_code ec;
        onDisk = std::filesystem::file_size(path, ec);
        std::printf("  size            %ju B on disk, %zu B replayed "
                    "(%.2fx)\n",
                    onDisk, inMem,
                    onDisk ? double(inMem) / double(onDisk) : 0.0);
    }
    return ok ? 0 : 1;
}

/** Content key of the whole benchmark suite at the active scale: the
 *  digest CI uses to key its trace-store cache. */
int
printSuiteKey()
{
    const auto suite = specint95Suite();
    const std::uint64_t divisor = scaleDivisor();
    Fnv1a64 h;
    h.u64(divisor).u64(interpVersion).u64(traceStoreFormatVersion);
    std::vector<std::uint64_t> digests(suite.size());
    parallelFor(suite.size(),
                [&](std::size_t i) { digests[i] = suiteModuleDigest(i); });
    for (std::size_t i = 0; i < suite.size(); ++i) {
        h.u64(digests[i]);
        h.u64(suite[i].scaledBudget(divisor));
    }
    std::printf("%016" PRIx64 "\n", h.value());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quiet = false;
    std::vector<std::string> paths;
    std::string dir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--verify") {
            quiet = true;
        } else if (arg == "--suite-key") {
            return printSuiteKey();
        } else if (arg == "--list") {
            // Shared with `bsisa-sweep status`: the same listing code
            // renders both tools' view of a store directory.
            const std::string listDir =
                i + 1 < argc ? argv[++i]
                             : TraceStore::fromEnv().directory();
            if (listDir.empty()) {
                std::fprintf(stderr,
                             "--list needs a directory (argument or "
                             "BSISA_TRACE_DIR)\n");
                return 2;
            }
            std::ostringstream os;
            printTraceStoreListing(os, listDir);
            std::fputs(os.str().c_str(), stdout);
            return 0;
        } else if (arg == "--dir") {
            if (++i >= argc)
                return usage();
            dir = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (!dir.empty()) {
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec)) {
            if (entry.path().extension() == ".bstrace")
                paths.push_back(entry.path().string());
        }
        if (ec) {
            std::fprintf(stderr, "%s: cannot list directory\n",
                         dir.c_str());
            return 1;
        }
        std::sort(paths.begin(), paths.end());
    }
    if (paths.empty())
        return usage();

    int bad = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (i && !quiet)
            std::printf("\n");
        bad += dumpEntry(paths[i], quiet);
    }
    if (!quiet)
        std::printf("%s%zu entries, %d bad\n", paths.size() > 1 ? "\n" : "",
                    paths.size(), bad);
    return bad ? 1 : 0;
}
