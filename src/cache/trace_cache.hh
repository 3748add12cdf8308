/**
 * @file
 * A trace cache model (Rotenberg, Bennett, and Smith, 1996 — the
 * paper's reference [19] and its closest competitor).
 *
 * The trace cache records sequences of committed basic blocks (a
 * *trace*: up to maxBlocks blocks / maxOps operations, ending early at
 * any call/return/indirect jump).  When the fetch unit's predicted
 * path matches a cached trace, the whole trace is fetched in one
 * cycle; otherwise the core fetch unit supplies one basic block per
 * cycle and the fill unit learns the new trace.
 *
 * Traces are identified by their starting block and the directions of
 * their interior conditional branches, set-associative on the start.
 */

#ifndef BSISA_CACHE_TRACE_CACHE_HH
#define BSISA_CACHE_TRACE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/lru_set_array.hh"

namespace bsisa
{

/** Geometry of the trace cache. */
struct TraceCacheConfig
{
    unsigned entries = 64;   //!< total trace slots
    unsigned assoc = 4;
    unsigned maxBlocks = 3;  //!< basic blocks per trace
    unsigned maxOps = 16;    //!< operations per trace
};

/** One cached trace. */
struct Trace
{
    std::uint64_t start = ~0ull;      //!< starting block token
    std::vector<std::uint64_t> blocks;  //!< block tokens, in order
    /** Interior branch directions (blocks.size()-1 entries at most;
     *  unconditional interior edges contribute no bit). */
    std::vector<bool> dirs;
    unsigned ops = 0;
    bool valid = false;  //!< holds a trace (the fill unit's flag)
};

class TraceCache
{
  public:
    explicit TraceCache(const TraceCacheConfig &config);

    /**
     * Look up a trace starting at @p start whose interior directions
     * are a prefix of @p predictedDirs.
     * @return the trace, or null on miss.
     */
    const Trace *lookup(std::uint64_t start,
                        const std::vector<bool> &predictedDirs);

    /** Install (or refresh) a trace. */
    void install(const Trace &trace);

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

    const TraceCacheConfig &config() const { return cfg; }

  private:
    TraceCacheConfig cfg;
    LruSetArray<Trace> slots;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;

    std::size_t setOf(std::uint64_t start) const;
};

} // namespace bsisa

#endif // BSISA_CACHE_TRACE_CACHE_HH
