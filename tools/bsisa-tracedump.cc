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
 * --suite-key and --list come first and take no option; a missing
 * --list or --dir directory exits 1, any other misuse exits 2.
 *
 * Verification re-runs the exact open path the simulator uses (mmap,
 * header + section checksums, event-record validation), using the entry's
 * own header as the expected key, so a "ok" entry is by construction
 * loadable.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "exp/figures.hh"
#include "exp/service.hh"
#include "sim/trace_store.hh"
#include "support/digest.hh"
#include "support/parallel.hh"
#include "support/parse.hh"
#include "workloads/specmix.hh"

using namespace bsisa;

namespace
{

/** Print the usage, then @p error; exit status 2. */
int
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "usage: bsisa-tracedump [--verify] <entry>...\n"
                 "       bsisa-tracedump [--verify] --dir <store-dir>\n"
                 "       bsisa-tracedump --suite-key\n"
                 "       bsisa-tracedump --list [store-dir]\n"
                 "bsisa-tracedump: %s\n",
                 error.c_str());
    return 2;
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
    // Full open-path verification keyed by the entry's own header.
    const TraceOpenStatus status = openTraceFile(
        path, TraceKey{h.moduleDigest, h.maxOps, h.maxBlocks}, trace);
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
    std::printf("  events          %" PRIu64 " records, %" PRIu64
                " bytes at offset %" PRIu64 "\n",
                h.eventCount, h.eventBytes, traceEventsOffset);
    std::printf("  address pool    %" PRIu64 " addrs, %" PRIu64
                " bytes at offset %" PRIu64 "\n",
                h.addrCount, h.addrCount * sizeof(std::uint64_t),
                h.addrOffset);
    std::printf("  tail            func %u block %u\n", h.tailFunc,
                h.tailBlock);
    std::printf("  checksums       header=%016" PRIx64
                " events=%016" PRIx64 " addrs=%016" PRIx64 "\n",
                h.headerChecksum, h.eventChecksum, h.addrChecksum);
    std::printf("  verify          %s\n", traceOpenStatusName(status));
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

constexpr OptionSpec dumpOptions[] = {{"--verify"}, {"--dir", true}};

} // namespace

int
main(int argc, char **argv)
{
    // --suite-key and --list are modes that take no option, and --list
    // one directory; any other first argument dumps entries.
    const std::string_view mode = argc > 1 ? argv[1] : "";
    const bool suiteKey = mode == "--suite-key";
    const bool list = mode == "--list";
    const bool dump = !suiteKey && !list;
    CommandLine args;
    std::string error;
    if (!parseCommandLine({argv + (dump ? 1 : 2), argv + argc},
                          dump ? dumpOptions : std::span<const OptionSpec>(),
                          dump ? SIZE_MAX : list ? 1 : 0, args, error))
        return usage(dump ? error : std::string(mode) + ": " + error);
    if (suiteKey)
        return printSuiteKey();

    std::vector<std::string> paths;
    std::string dir(args.get("--dir"));
    if (list)
        dir = args.positional.empty() ? TraceStore::fromEnv().directory()
                                      : args.positional[0];
    else
        paths = args.positional;
    if (list && dir.empty())
        return usage("--list needs a directory (argument or "
                     "BSISA_TRACE_DIR)");
    if (!dir.empty()) {
        std::error_code ec;
        const std::filesystem::directory_iterator entries(dir, ec);
        if (ec) {
            std::fprintf(stderr, "%s: cannot list directory\n",
                         dir.c_str());
            return 1;
        }
        if (list) {
            // Shared with `bsisa-sweep status`: the same listing code
            // renders both tools' view of a store directory.
            printTraceStoreListing(std::cout, dir);
            return 0;
        }
        for (const auto &entry : entries)
            if (entry.path().extension() == ".bstrace")
                paths.push_back(entry.path().string());
        std::sort(paths.begin(), paths.end());
    }
    if (paths.empty())
        return usage("no trace entries given");

    const bool quiet = args.has("--verify");
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
