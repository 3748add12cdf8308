/**
 * @file
 * Reservation stations of one functional-unit class.
 *
 * A station is busy from its op's dispatch until the cycle after the
 * op issues.  The stations of a class are interchangeable: dispatch
 * takes whichever frees earliest, so only the multiset of busy-until
 * cycles affects timing, never which station holds which cycle.
 *
 * The engine also never moves the earliest-free cycle backwards: a
 * take replaces it with start + 1, and start >= dispatch >=
 * earliestFree().  So the multiset is kept as a calendar: a ring of
 * per-cycle station counts covering [earliest, earliest + ringSpan),
 * where a take is two counter updates plus, when the earliest cycle's
 * count runs out, a forward walk to the next busy cycle, whatever the
 * number of stations.  A busy-until cycle past the ring's end (a
 * class idle for thousands of cycles while some of its stations stay
 * old) waits in a min-heap and moves into the ring once the earliest
 * cycle comes within ringSpan of it, so memory stays bounded by the
 * station count whatever the spread.
 */

#ifndef BSISA_SIM_OOO_RS_HH
#define BSISA_SIM_OOO_RS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/compiler.hh"
#include "support/logging.hh"

namespace bsisa
{

class ReservationStations
{
  public:
    explicit ReservationStations(unsigned entries)
        : ring(ringSpan, 0), ringStations(entries)
    {
        BSISA_ASSERT(entries >= 1);
        ring[0] = entries;
    }

    /** Cycle the earliest-free station can accept an op. */
    std::uint64_t earliestFree() const { return earliest; }

    /** Occupy the earliest-free station until @p busyUntil, which
     *  must not precede earliestFree(). */
    BSISA_ALWAYS_INLINE void
    occupyEarliest(std::uint64_t busyUntil)
    {
        BSISA_ASSERT(busyUntil >= earliest,
                     "the earliest-free cycle never decreases");
        std::uint32_t *counts = ring.data();
        --counts[earliest & ringMask];
        if (busyUntil - earliest <= ringMask)
            ++counts[busyUntil & ringMask];
        else
            pushFar(busyUntil);
        if (counts[earliest & ringMask] != 0)
            return;
        // Every ring station lies within ringSpan of earliest, so the
        // walk stops inside the ring; an empty ring jumps to the heap.
        if (ringStations == 0)
            earliest = far.front();
        else
            while (counts[++earliest & ringMask] == 0) {
            }
        if (!far.empty() && far.front() - earliest <= ringMask)
            pullFar();
    }

  private:
    static constexpr std::size_t ringSpan = 4096;
    static constexpr std::uint64_t ringMask = ringSpan - 1;

    /** Hold @p busyUntil, past the ring's end, in the heap. */
    BSISA_NOINLINE void
    pushFar(std::uint64_t busyUntil)
    {
        far.push_back(busyUntil);
        std::push_heap(far.begin(), far.end(), std::greater<>());
        --ringStations;
    }

    /** Move every heap cycle the ring now covers into the ring. */
    BSISA_NOINLINE void
    pullFar()
    {
        while (!far.empty() && far.front() - earliest <= ringMask) {
            ++ring[far.front() & ringMask];
            ++ringStations;
            std::pop_heap(far.begin(), far.end(), std::greater<>());
            far.pop_back();
        }
    }

    std::uint64_t earliest = 0;
    /** Stations busy until each cycle of [earliest, earliest +
     *  ringSpan), at slot cycle % ringSpan. */
    std::vector<std::uint32_t> ring;
    std::uint32_t ringStations;  //!< stations counted in the ring
    /** Min-heap of the busy-until cycles at or past earliest +
     *  ringSpan; every one is later than every ring cycle. */
    std::vector<std::uint64_t> far;
};

} // namespace bsisa

#endif // BSISA_SIM_OOO_RS_HH
