/**
 * @file
 * Reservation stations of one functional-unit class.
 *
 * A station is busy from its op's dispatch until the cycle after the
 * op issues.  The stations of a class are interchangeable: dispatch
 * takes whichever frees earliest, so only the multiset of busy-until
 * cycles affects timing, never which station holds which cycle.  The
 * multiset is kept as a binary min-heap: dispatch reads the top in
 * O(1), and occupying that station replaces the top and sifts it down
 * in O(log stations).
 */

#ifndef BSISA_SIM_OOO_RS_HH
#define BSISA_SIM_OOO_RS_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace bsisa
{

class ReservationStations
{
  public:
    explicit ReservationStations(unsigned entries) : heap(entries, 0)
    {
        BSISA_ASSERT(entries >= 1);
    }

    /** Cycle the earliest-free station can accept an op. */
    std::uint64_t earliestFree() const { return heap[0]; }

    /** Occupy the earliest-free station until @p busyUntil. */
    void occupyEarliest(std::uint64_t busyUntil)
    {
        const std::size_t n = heap.size();
        std::size_t i = 0;
        for (std::size_t c = 1; c < n; c = 2 * i + 1) {
            if (c + 1 < n && heap[c + 1] < heap[c])
                ++c;
            if (heap[c] >= busyUntil)
                break;
            heap[i] = heap[c];
            i = c;
        }
        heap[i] = busyUntil;
    }

  private:
    std::vector<std::uint64_t> heap;
};

} // namespace bsisa

#endif // BSISA_SIM_OOO_RS_HH
