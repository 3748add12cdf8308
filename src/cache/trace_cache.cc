/**
 * @file
 * Trace cache implementation.
 */

#include "cache/trace_cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace bsisa
{

TraceCache::TraceCache(const TraceCacheConfig &config)
    : cfg(config), slots(config.entries, config.assoc)
{
    // Sets are found by modulo, so any nonzero set count works.
    BSISA_ASSERT(setGeometryFault(cfg.entries, cfg.assoc, false) ==
                 SetGeometryFault::None);
    BSISA_ASSERT(cfg.maxBlocks >= 1 && cfg.maxOps >= 1);
}

std::size_t
TraceCache::setOf(std::uint64_t start) const
{
    const std::size_t sets = cfg.entries / cfg.assoc;
    // Mix function and block id bits.
    return (start ^ (start >> 32)) % sets;
}

const Trace *
TraceCache::lookup(std::uint64_t start,
                   const std::vector<bool> &predictedDirs)
{
    // The trace is usable when its interior directions agree with
    // the predictions we have.
    const auto usable = [&](const Trace &t) {
        return t.start == start &&
               t.dirs.size() <= predictedDirs.size() &&
               std::equal(t.dirs.begin(), t.dirs.end(),
                          predictedDirs.begin());
    };
    if (!slots.find(setOf(start), usable)) {
        ++nMisses;
        return nullptr;
    }
    ++nHits;
    // Accessing the same first match marks it most recently used.
    return &slots.access(setOf(start), usable).entry;
}

void
TraceCache::install(const Trace &trace)
{
    BSISA_ASSERT(trace.valid && !trace.blocks.empty());
    // An existing same-start same-dirs trace is replaced in place.
    slots.access(setOf(trace.start), [&](const Trace &t) {
        return t.start == trace.start && t.dirs == trace.dirs;
    }).entry = trace;
}

} // namespace bsisa
