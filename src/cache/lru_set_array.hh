/**
 * @file
 * The one set-associative table with true-LRU replacement.  The
 * instruction and data caches, both predictors' BTBs and the trace
 * cache keep their entries in it.
 *
 * The table owns the ways, their validity, the LRU clock, the probe
 * and the victim rule.  The caller owns the set index (a mask for the
 * caches and BTBs, a modulo hash for the trace cache), the match
 * predicate and the payload Entry.
 */

#ifndef BSISA_CACHE_LRU_SET_ARRAY_HH
#define BSISA_CACHE_LRU_SET_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/bitutil.hh"

namespace bsisa
{

/** Why a set-associative geometry cannot be built. */
enum class SetGeometryFault
{
    None,
    Ways,  //!< no ways
    Sets,  //!< entries do not fill a usable number of sets
};

/**
 * The geometry rule of every set-associative table: at least one way,
 * and @p entries that split evenly into a nonzero number of
 * @p ways-way sets.  A mask-indexed table also needs a power-of-two
 * set count; the trace cache's modulo hash does not.
 */
constexpr SetGeometryFault
setGeometryFault(std::uint64_t entries, std::uint64_t ways,
                 bool maskIndexed = true)
{
    if (ways == 0)
        return SetGeometryFault::Ways;
    const std::uint64_t sets = entries / ways;
    if (sets == 0 || entries % ways != 0 ||
        (maskIndexed && !isPowerOfTwo(sets)))
        return SetGeometryFault::Sets;
    return SetGeometryFault::None;
}

template <typename Entry>
class LruSetArray
{
  public:
    /** @p entries slots in sets of @p ways (a multiple of it). */
    LruSetArray(std::size_t entries, unsigned ways)
        : nWays(ways), storage(entries)
    {
    }

    /** The first valid way of @p set, in way order, whose entry
     *  satisfies @p match, or null.  Leaves the LRU order alone. */
    template <typename Match>
    const Entry *
    find(std::size_t set, Match &&match) const
    {
        const Way *base = &storage[set * nWays];
        for (unsigned w = 0; w < nWays; ++w)
            if (base[w].lastUse != 0 && match(base[w].entry))
                return &base[w].entry;
        return nullptr;
    }

    /** The way access() chose, now valid and most recently used. */
    struct Access
    {
        Entry &entry;
        unsigned way;
        bool hit;  //!< entry matched; on a miss the caller rewrites it
    };

    /**
     * Use the way of @p set that holds the entry matching @p match:
     * the first matching way, else the last invalid way, else the
     * least recently used way.
     */
    template <typename Match>
    Access
    access(std::size_t set, Match &&match)
    {
        Way *base = &storage[set * nWays];
        Way *victim = base;
        bool hit = false;
        for (unsigned w = 0; w < nWays; ++w) {
            Way &way = base[w];
            if (way.lastUse != 0 && match(way.entry)) {
                victim = &way;
                hit = true;
                break;
            }
            // An invalid way (lastUse 0) always takes over, so the
            // last one wins; no valid way is older than it.
            if (way.lastUse == 0 || way.lastUse < victim->lastUse)
                victim = &way;
        }
        victim->lastUse = ++clock;
        return {victim->entry, unsigned(victim - base), hit};
    }

  private:
    struct Way
    {
        Entry entry{};
        /** Clock of the last touch; 0 marks an invalid way. */
        std::uint64_t lastUse = 0;
    };

    unsigned nWays;
    std::vector<Way> storage;  //!< sets * ways, set-major
    std::uint64_t clock = 0;
};

} // namespace bsisa

#endif // BSISA_CACHE_LRU_SET_ARRAY_HH
