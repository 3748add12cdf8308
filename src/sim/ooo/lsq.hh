/**
 * @file
 * Load/store queue: program-ordered ring of in-flight memory ops with
 * store-to-load forwarding and conservative alias handling.
 *
 * Every access is modelled as accessBytes wide.  A load searching the
 * queue walks older stores youngest-first and classifies the first
 * address conflict it finds:
 *
 *   Forward — identical address: the store's data feeds the load
 *             directly (the load never touches the dcache).
 *   Overlap — byte ranges intersect but the addresses differ (the
 *             classic partial-overlap case): forwarding would splice
 *             bytes from two sources, so the load conservatively
 *             waits for the store to leave the queue.
 *
 * Independently of conflicts, a load may not issue before every older
 * store's address is known (olderStoreAddrReady) — the conservative
 * alias discipline: with any older address unresolved, the conflict
 * classification itself would be speculative.
 *
 * Entries are pushed at dispatch, their commit cycle is stamped when
 * the owning unit commits (in program order, so commit stamps are
 * monotone along the ring), and capacity is reclaimed oldest-first.
 * The queue retains its own copy of each address: TimingUnit address
 * slices are only stable until the next fetch, and the whole point of
 * this structure is comparing addresses across fetches.
 *
 * Entries leave only from the head, so two indices over the queued
 * stores keep a load's lookups off the loads around them:
 *
 *   stores   — (seq, ring slot) of every queued store in program
 *              order; the conflict search walks it youngest-first.
 *   addrGate — a monotone max-queue of (seq, addrReady): each store
 *              drops the older entries it dominates, so the front
 *              holds the latest address-ready cycle of the queue and
 *              the alias gate is one read.
 *
 * Both are trimmed at the front whenever the head advances.  Every
 * store enters and leaves each index once, so a load's gate costs
 * O(1) and its search O(queued stores), not O(queue).
 */

#ifndef BSISA_SIM_OOO_LSQ_HH
#define BSISA_SIM_OOO_LSQ_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace bsisa
{

class LoadStoreQueue
{
  public:
    /** Modelled width of one memory access. */
    static constexpr std::uint64_t accessBytes = 8;

    /** Commit stamp of entries whose unit has not committed yet. */
    static constexpr std::uint64_t commitPending = ~0ull;

    struct Entry
    {
        std::uint64_t addr = 0;
        std::uint64_t addrReady = 0;  //!< issue cycle (address known)
        std::uint64_t dataReady = 0;  //!< store data available
        std::uint64_t commit = commitPending;
        std::uint64_t seq = 0;     //!< global program-order number
    };

    enum class ConflictKind
    {
        None,     //!< no older in-flight store touches the line
        Forward,  //!< exact match: forward store data
        Overlap,  //!< partial overlap: wait for the store to drain
    };

    struct Conflict
    {
        ConflictKind kind = ConflictKind::None;
        std::uint64_t dataReady = 0;  //!< Forward: store data cycle
        std::uint64_t drain = 0;      //!< Overlap: wait-until cycle
        std::uint64_t storeSeq = 0;   //!< conflicting store's seq
    };

    explicit LoadStoreQueue(unsigned entries)
        : cap(entries), ring(entries), stores(entries), addrGate(entries)
    {
        BSISA_ASSERT(entries >= 1);
    }

    std::size_t size() const { return ring.size(); }

    bool full() const { return ring.size() >= cap; }

    /** Oldest entry's commit cycle, or commitPending if the oldest
     *  entry belongs to a unit still being scheduled. */
    std::uint64_t oldestCommit() const
    {
        BSISA_ASSERT(!ring.empty(), "oldestCommit on empty queue");
        return ring.front().commit;
    }

    /** Drop committed entries whose commit cycle is <= @p cycle. */
    void drainCommitted(std::uint64_t cycle)
    {
        while (!ring.empty() && ring.front().commit != commitPending &&
               ring.front().commit <= cycle)
            ring.popFront();
        trimStoreIndices();
    }

    /** Drop the oldest entry unconditionally (capacity reclaim). */
    void popOldest()
    {
        BSISA_ASSERT(!ring.empty(), "popOldest on empty queue");
        ring.popFront();
        trimStoreIndices();
    }

    std::uint64_t pushStore(std::uint64_t addr, std::uint64_t addrReady,
                            std::uint64_t dataReady)
    {
        const std::size_t slot = push(addr, addrReady, dataReady);
        const std::uint64_t seq = ring.at(slot).seq;
        stores.pushBack(StoreRef{seq, slot});
        while (!addrGate.empty() && addrGate.back().addrReady <= addrReady)
            addrGate.popBack();
        addrGate.pushBack(GateEntry{seq, addrReady});
        return seq;
    }

    std::uint64_t pushLoad(std::uint64_t addr, std::uint64_t addrReady)
    {
        return ring.at(push(addr, addrReady, addrReady)).seq;
    }

    /**
     * Latest address-ready cycle over all stores currently queued —
     * the conservative alias gate: a load dispatched now may not
     * issue before this cycle.
     */
    std::uint64_t olderStoreAddrReady() const
    {
        return addrGate.empty() ? 0 : addrGate.front().addrReady;
    }

    /**
     * Classify the youngest older store conflicting with a load of
     * @p addr.  All queued entries are older than the load about to
     * be pushed, so the walk runs youngest-first over the store
     * index; the returned storeSeq lets callers verify no forward
     * ever crosses program order.
     */
    Conflict searchOlderStores(std::uint64_t addr) const
    {
        for (std::size_t i = stores.end(); i != stores.begin();) {
            i = stores.prev(i);
            const Entry &e = ring.at(stores.at(i).slot);
            const std::uint64_t lo = e.addr < addr ? e.addr : addr;
            const std::uint64_t hi = e.addr < addr ? addr : e.addr;
            if (hi - lo >= accessBytes)
                continue;
            Conflict c;
            c.storeSeq = e.seq;
            if (e.addr == addr) {
                c.kind = ConflictKind::Forward;
                c.dataReady = e.dataReady;
            } else {
                c.kind = ConflictKind::Overlap;
                // Wait for the store to leave the queue: its commit
                // if known, else the cycle both its address and data
                // are resolved (same-unit store, conservatively).
                c.drain = e.commit != commitPending ? e.commit
                                                    : e.dataReady;
            }
            return c;
        }
        return Conflict{};
    }

    /** Stamp every entry with seq >= @p fromSeq as committing at
     *  @p cycle.  Commit is in program order, so stamps only ever
     *  grow along the ring. */
    void stampCommit(std::uint64_t fromSeq, std::uint64_t cycle)
    {
        for (std::size_t i = ring.end(); i != ring.begin();) {
            i = ring.prev(i);
            Entry &e = ring.at(i);
            if (e.seq < fromSeq)
                break;
            BSISA_ASSERT(e.commit == commitPending);
            e.commit = cycle;
        }
    }

    /** Sequence number the next pushed entry will receive. */
    std::uint64_t nextSeq() const { return nextSeqNum; }

  private:
    /** Fixed-capacity FIFO over a vector: push at the back, pop at
     *  either end, walk slots with next()/prev() from begin() or
     *  end().  One slot stays unused so begin() == end() only when
     *  empty. */
    template <typename T>
    class Ring
    {
      public:
        explicit Ring(std::size_t capacity) : buf(capacity + 1) {}

        bool empty() const { return head == tail; }

        std::size_t size() const
        {
            return tail >= head ? tail - head : tail + buf.size() - head;
        }

        std::size_t begin() const { return head; }
        std::size_t end() const { return tail; }

        std::size_t next(std::size_t i) const
        {
            return i + 1 == buf.size() ? 0 : i + 1;
        }

        std::size_t prev(std::size_t i) const
        {
            return (i == 0 ? buf.size() : i) - 1;
        }

        T &at(std::size_t slot) { return buf[slot]; }
        const T &at(std::size_t slot) const { return buf[slot]; }
        const T &front() const { return buf[head]; }
        const T &back() const { return buf[prev(tail)]; }

        /** Append @p v; returns its slot, stable until it is
         *  popped. */
        std::size_t pushBack(const T &v)
        {
            const std::size_t slot = tail;
            buf[slot] = v;
            tail = next(tail);
            BSISA_ASSERT(tail != head, "ring overflow");
            return slot;
        }

        void popFront() { head = next(head); }
        void popBack() { tail = prev(tail); }

      private:
        std::vector<T> buf;
        std::size_t head = 0;
        std::size_t tail = 0;
    };

    struct StoreRef
    {
        std::uint64_t seq;
        std::size_t slot;  //!< the store's slot in ring
    };

    struct GateEntry
    {
        std::uint64_t seq;
        std::uint64_t addrReady;
    };

    std::size_t push(std::uint64_t addr, std::uint64_t addrReady,
                     std::uint64_t dataReady)
    {
        BSISA_ASSERT(!full(), "LSQ overflow");
        return ring.pushBack(
            Entry{addr, addrReady, dataReady, commitPending, nextSeqNum++});
    }

    /** Drop index entries of stores that have left the queue. */
    void trimStoreIndices()
    {
        const std::uint64_t oldest =
            ring.empty() ? nextSeqNum : ring.front().seq;
        while (!stores.empty() && stores.front().seq < oldest)
            stores.popFront();
        while (!addrGate.empty() && addrGate.front().seq < oldest)
            addrGate.popFront();
    }

    unsigned cap;
    Ring<Entry> ring;
    Ring<StoreRef> stores;      //!< queued stores, program order
    Ring<GateEntry> addrGate;   //!< addrReady strictly decreasing
    std::uint64_t nextSeqNum = 0;
};

} // namespace bsisa

#endif // BSISA_SIM_OOO_LSQ_HH
