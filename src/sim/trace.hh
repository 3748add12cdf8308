/**
 * @file
 * Functional-trace capture.
 *
 * Every timing model in this repo consumes the same committed dynamic
 * basic-block stream (DESIGN.md section 5), so one functional
 * execution can drive any number of timing configurations.  An
 * ExecTrace records that stream from one Interp run into a compact
 * in-memory buffer — per event: block identity, exit kind, trap
 * direction, successor, and the Ld/St addresses (pooled into a single
 * shared vector) — and every fetch source replays it by index.
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

/** One committed block execution in trace form (addresses pooled). */
struct TraceEvent
{
    FuncId func = invalidId;
    BlockId block = invalidId;
    FuncId nextFunc = invalidId;
    BlockId nextBlock = invalidId;
    /** Slice [memBegin, memBegin + memCount) of the trace's pool. */
    std::uint64_t memBegin = 0;
    std::uint32_t memCount = 0;
    ExitKind exit = ExitKind::Halt;
    bool taken = false;
};

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
 * Span adjacency invariant: events slice the pool in stream order
 * with no gaps, i.e. events[0].memBegin == 0, events[i].memBegin ==
 * events[i-1].memBegin + events[i-1].memCount, and the last span ends
 * at memAddrCount.  Both builders guarantee it — captureTrace appends
 * sequentially, and the trace-store decoder derives the offsets as
 * that running sum and rejects an entry whose sum is not the pool
 * size — so a fetch unit covering events [pos, pos + n) has the
 * single span [events[pos].memBegin, + sum of their memCounts).
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

/** Run @p module under @p limits, recording the committed stream. */
ExecTrace captureTrace(const Module &module, Interp::Limits limits);

/** Derive a branch-bias profile from a captured trace (equivalent to
 *  collectProfile() over the same execution, without re-running it). */
ProfileData profileFromTrace(const ExecTrace &trace);

} // namespace bsisa

#endif // BSISA_SIM_TRACE_HH
