/**
 * @file
 * Register alias table with a FIFO free list and one-shot checkpoints.
 *
 * The map covers the architectural register file plus the dump slot
 * (numArchRegs + 1 entries; sim/decoded.hh).  Renaming is timed: the
 * free list is a FIFO of (physical register, cycle it becomes free),
 * so rename() reports both the allocated register and the earliest
 * cycle an allocation at the requested cycle could actually proceed —
 * a dry free list shows up as a dispatch stall in the engine rather
 * than as hidden state here.
 *
 * Checkpoint discipline is single-level by design: the analytic OoO
 * engine (sim/ooo/ooo.cc) processes one redirect at a time — take a
 * checkpoint, rename the wrong-path ops, restore at the resolve cycle
 * — so at most one checkpoint is ever outstanding, and rename() only
 * journals allocations while one is.  restore() returns every
 * journaled register to the free list (available the cycle after the
 * squash) and reinstates the mapped array wholesale.
 *
 * regZero (architectural register 0) is never written by any decoded
 * op, so its mapping is pinned to physical register 0 for the whole
 * run; the engine pins that register's ready time at cycle 0.
 */

#ifndef BSISA_SIM_OOO_RAT_HH
#define BSISA_SIM_OOO_RAT_HH

#include <cstdint>
#include <vector>

#include "arch/reg.hh"
#include "sim/decoded.hh"
#include "support/compiler.hh"
#include "support/logging.hh"

namespace bsisa
{

class RegAliasTable
{
  public:
    /** Mapped slots: all architectural registers plus regDump. */
    static constexpr unsigned mappedRegs = numArchRegs + 1;

    struct Alloc
    {
        std::uint16_t phys;   //!< freshly allocated physical register
        std::uint16_t prev;   //!< previous mapping (freed at commit)
        std::uint64_t ready;  //!< earliest cycle the allocation fits
    };

    struct Checkpoint
    {
        std::uint16_t map[mappedRegs];
        std::size_t journalBase;
    };

    explicit RegAliasTable(unsigned physRegs) : physCount(physRegs)
    {
        BSISA_ASSERT(physRegs > mappedRegs,
                     "rename needs spare physical registers");
        map.resize(mappedRegs);
        for (unsigned r = 0; r < mappedRegs; ++r)
            map[r] = static_cast<std::uint16_t>(r);
        // Registers mappedRegs..physRegs-1 start free, in index order.
        freeRing.resize(physRegs);
        freeAvail.assign(physRegs, 0);
        for (unsigned p = mappedRegs; p < physRegs; ++p)
            freeRing[freeTail++] = static_cast<std::uint16_t>(p);
        freeRegs = physRegs - mappedRegs;
    }

    std::uint16_t lookup(RegNum r) const { return map[r]; }

    unsigned physRegs() const { return physCount; }

    std::size_t freeCount() const { return freeRegs; }

    /**
     * Map @p dst to a fresh physical register for an op dispatching
     * at @p cycle.  The returned ready time is max(cycle, the head
     * free register's availability) — the engine folds it into the
     * op's dispatch time.
     */
    BSISA_ALWAYS_INLINE Alloc
    rename(RegNum dst, std::uint64_t cycle)
    {
        BSISA_ASSERT(dst != regZero, "regZero is never renamed");
        BSISA_ASSERT(freeRegs != 0, "free list underflow");
        const std::uint16_t phys = freeRing[freeHead];
        const std::uint64_t avail = freeAvail[phys];
        if (++freeHead == freeRing.size())
            freeHead = 0;
        --freeRegs;
        const Alloc alloc{phys, map[dst],
                          avail > cycle ? avail : cycle};
        map[dst] = phys;
        if (journalActive)
            journal.push_back(JournalEntry{dst, alloc.prev, phys});
        return alloc;
    }

    /** Return @p phys to the free list, usable from @p cycle on.
     *  Called at commit for the mapping the committing op evicted. */
    BSISA_ALWAYS_INLINE void
    release(std::uint16_t phys, std::uint64_t cycle)
    {
        // The mapped registers are never free.
        BSISA_ASSERT(freeRegs < physCount - mappedRegs,
                     "free list overflow");
        freeAvail[phys] = cycle;
        freeRing[freeTail] = phys;
        if (++freeTail == freeRing.size())
            freeTail = 0;
        ++freeRegs;
    }

    /** Snapshot the map ahead of wrong-path renaming.  Single-level:
     *  a second checkpoint before restore() is a bug. */
    Checkpoint checkpoint()
    {
        BSISA_ASSERT(!journalActive, "checkpoint already outstanding");
        journalActive = true;
        Checkpoint cp;
        for (unsigned r = 0; r < mappedRegs; ++r)
            cp.map[r] = map[r];
        cp.journalBase = journal.size();
        return cp;
    }

    /**
     * Squash everything renamed since @p cp: reinstate the mapped
     * array and return the journaled allocations to the free list,
     * each available the cycle after @p squashCycle.  Registers go
     * back in allocation order, so the free list stays deterministic.
     */
    void restore(const Checkpoint &cp, std::uint64_t squashCycle)
    {
        BSISA_ASSERT(journalActive, "restore without checkpoint");
        for (unsigned r = 0; r < mappedRegs; ++r)
            map[r] = cp.map[r];
        for (std::size_t i = cp.journalBase; i < journal.size(); ++i)
            release(journal[i].phys, squashCycle + 1);
        journal.resize(cp.journalBase);
        journalActive = false;
    }

  private:
    struct JournalEntry
    {
        RegNum arch;
        std::uint16_t prev;
        std::uint16_t phys;
    };

    unsigned physCount;
    std::vector<std::uint16_t> map;
    /** FIFO of free physical registers, capacity physCount. */
    std::vector<std::uint16_t> freeRing;
    std::vector<std::uint64_t> freeAvail;  //!< indexed by phys reg
    std::size_t freeHead = 0;
    std::size_t freeTail = 0;
    std::size_t freeRegs = 0;  //!< entries between head and tail
    std::vector<JournalEntry> journal;
    bool journalActive = false;
};

} // namespace bsisa

#endif // BSISA_SIM_OOO_RAT_HH
