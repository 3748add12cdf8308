/**
 * @file
 * Functional-trace capture.
 *
 * Every timing model in this repo consumes the same committed dynamic
 * basic-block stream (DESIGN.md section 5), so one functional
 * execution can drive any number of timing configurations.  An
 * ExecTrace records that stream from one Interp run into a compact
 * in-memory buffer — 16 bytes per event: block identity, exit kind,
 * trap direction and the offset of its Ld/St addresses in a single
 * shared pool — and every fetch source replays it by index.  What a
 * neighbouring event already holds is not stored again: an event's
 * successor is the next event's block and its address count the gap
 * to the next event's offset (ExecTrace::nextFunc, memCount).
 * Capturing once per (module, limits) and replaying across an icache
 * sweep or a predictor ablation removes the dominant redundant work
 * from the paper's sweep-shaped experiments, and replay cursors are
 * read-only over the trace, so config points can fan out across
 * threads (see support/parallel.hh).
 */

#ifndef BSISA_SIM_TRACE_HH
#define BSISA_SIM_TRACE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/profile.hh"
#include "sim/interp.hh"

namespace bsisa
{

/** Most events, and most pooled addresses, one trace may hold: every
 *  pool offset and stream position fits 32 bits.  captureTrace stops
 *  with a fatal error past it and the trace store rejects a header
 *  past it, so no consumer narrows a count it has not been promised. */
constexpr std::uint64_t maxTraceEntries = 0xffffffffull;

/**
 * One committed block execution in trace form.  Its successor and its
 * address count are derived from the next event (ExecTrace::nextFunc,
 * nextBlock, memCount), so the event stores neither.  The trace store
 * writes events as these very bytes, so the record has no padding:
 * the two bytes after `taken` are a field, always zero.
 */
struct TraceEvent
{
    FuncId func = invalidId;
    BlockId block = invalidId;
    /** Start of the event's slice of the trace's address pool. */
    std::uint32_t memBegin = 0;
    ExitKind exit = ExitKind::Halt;
    bool taken = false;
    std::uint16_t spare = 0;
};

static_assert(sizeof(TraceEvent) == 16,
              "TraceEvent is the largest resident structure of a run");

/**
 * The committed event stream of one functional execution.
 *
 * The consumer-facing shape is two relocatable pools — a TraceEvent
 * array and the shared Ld/St address pool — exposed as (pointer,
 * count) spans.  Events reference the pool by *offset* (memBegin),
 * never by pointer, so a trace is position-independent: the pools may
 * live in the owned vectors (capture path) or inside a mmap-ed trace
 * store entry (sim/trace_store.hh), whose pages then back replay
 * spans directly with zero copies.  `backing` pins whatever owns
 * foreign pools (e.g. the file mapping) for the trace's lifetime.
 *
 * Events are linked and sliced by their neighbours:
 *
 *   - Successor: the block that executed after event i is event
 *     i + 1's (func, block).  The last event's successor is the tail
 *     (tailFunc, tailBlock): the block the run would have executed
 *     next when its budget cut it, or invalidId after a Halt.
 *   - Span adjacency: events slice the pool in stream order with no
 *     gaps, so event i's span is [events[i].memBegin,
 *     memOffset(i + 1)) and events[0].memBegin == 0.  A fetch unit
 *     covering events [pos, pos + n) has the single span
 *     [events[pos].memBegin, memOffset(pos + n)).
 *
 * captureTrace guarantees both by appending sequentially.  A trace
 * store entry stores the events and the tail as they are, and its
 * open rejects an entry whose first offset is not 0, whose offsets
 * decrease, or whose last offset is past the pool size.
 *
 * Traces are move-only: spans point into the owned vectors, whose
 * heap buffers survive moves but not copies.
 */
struct ExecTrace
{
    ExecTrace() = default;
    ExecTrace(ExecTrace &&) = default;
    ExecTrace &operator=(ExecTrace &&) = default;
    ExecTrace(const ExecTrace &) = delete;
    ExecTrace &operator=(const ExecTrace &) = delete;

    /** Committed event stream. */
    const TraceEvent *events = nullptr;
    std::size_t eventCount = 0;
    /** Ld/St address pool, shared by all events. */
    const std::uint64_t *memAddrs = nullptr;
    std::size_t memAddrCount = 0;

    /** Successor of the last event (see above). */
    FuncId tailFunc = invalidId;
    BlockId tailBlock = invalidId;

    /** Dynamic operation count of the run (Table 2's metric). */
    std::uint64_t dynOps = 0;
    /** Dynamic block count of the run. */
    std::uint64_t dynBlocks = 0;

    /** Pool storage when the trace owns its data (capture path). */
    std::vector<TraceEvent> ownedEvents;
    std::vector<std::uint64_t> ownedAddrs;
    /** Keeps externally owned pools (a file mapping) alive. */
    std::shared_ptr<const void> backing;

    /** Point the spans at the owned vectors after filling them. */
    void
    sealOwned()
    {
        events = ownedEvents.data();
        eventCount = ownedEvents.size();
        memAddrs = ownedAddrs.data();
        memAddrCount = ownedAddrs.size();
    }

    /** The function and block that executed after event @p i. */
    FuncId
    nextFunc(std::size_t i) const
    {
        return i + 1 < eventCount ? events[i + 1].func : tailFunc;
    }
    BlockId
    nextBlock(std::size_t i) const
    {
        return i + 1 < eventCount ? events[i + 1].block : tailBlock;
    }

    /** Pool offset where event @p i's span begins; the pool size at
     *  @p i == eventCount, where the last span ends. */
    std::uint32_t
    memOffset(std::size_t i) const
    {
        return i < eventCount ? events[i].memBegin
                              : std::uint32_t(memAddrCount);
    }

    /** Number of pooled addresses event @p i touched. */
    std::uint32_t
    memCount(std::size_t i) const
    {
        return memOffset(i + 1) - events[i].memBegin;
    }

    /** True when the pools live in a mmap-ed store entry. */
    bool mapped() const { return backing != nullptr; }

    /** Approximate resident size, for capacity planning in reports. */
    std::size_t
    sizeBytes() const
    {
        return eventCount * sizeof(TraceEvent) +
               memAddrCount * sizeof(std::uint64_t);
    }
};

/** Run @p module under @p limits, recording the committed stream.
 *  A run past maxTraceEntries events or addresses is a fatal error. */
ExecTrace captureTrace(const Module &module, Interp::Limits limits);

/** Derive a branch-bias profile from a captured trace (equivalent to
 *  collectProfile() over the same execution, without re-running it). */
ProfileData profileFromTrace(const ExecTrace &trace);

} // namespace bsisa

#endif // BSISA_SIM_TRACE_HH
