/**
 * @file
 * The shared cycle-level pipeline core.
 *
 * Models the paper's HPS-style machine at the fidelity its evaluation
 * needs: one fetch unit per cycle through the L1 icache, a finite
 * instruction window with in-order unit retirement, data-dependence-
 * driven dynamic scheduling onto issueWidth uniform pipelined
 * functional units with Table-1 latencies, dcache-extended load
 * latencies, and misprediction redirects that resolve when the
 * mispredicted trap/fault's operands are ready — including the cost of
 * issuing the wrongly fetched block's operations.
 */

#ifndef BSISA_SIM_PIPELINE_HH
#define BSISA_SIM_PIPELINE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "sim/fetch_source.hh"
#include "sim/machine.hh"
#include "support/compiler.hh"
#include "support/logging.hh"

namespace bsisa
{

/** Run @p source through a machine configured by @p config. */
SimResult simulatePipeline(FetchSource &source,
                           const MachineConfig &config);

/**
 * The front end both timing models fetch through (LanePipelines and
 * the out-of-order engine): one unit per cycle after the previous
 * fetch, the redirect of a mispredict, the wait for room in the
 * window or ROB, and the icache stall, each charged to its stall
 * counter in @p res.  The model-specific steps are callables:
 *
 *   - prevDone(i): completion cycle of op i of the previous unit,
 *     called only when @p havePrev (a unit has been scheduled);
 *   - wrongPath(ops, n, mustRunIdx, fetch, squashCutoff): issue the
 *     wrongly fetched block, squashing ops past mustRunIdx that
 *     could not issue by squashCutoff, and return the completion
 *     cycle of op mustRunIdx;
 *   - waitRoom(fetch): the first cycle >= fetch at which the window
 *     or ROB has room for the unit.
 *
 * Returns the cycle the unit leaves fetch.
 */
template <class PrevDone, class WrongPath, class WaitRoom>
BSISA_ALWAYS_INLINE std::uint64_t
frontEndFetch(const MachineConfig &cfg, Cache &icache, SimResult &res,
              std::uint64_t lastFetch, bool havePrev,
              const TimingUnit &unit, const RedirectInfo &redirect,
              PrevDone &&prevDone, WrongPath &&wrongPath,
              WaitRoom &&waitRoom)
{
    BSISA_ASSERT(unit.ops && unit.opCount > 0);
    std::uint64_t fetch = lastFetch + 1;
    const std::uint64_t fetchBase = fetch;

    if (redirect.mispredicted) {
        std::uint64_t resolve;
        if (redirect.resolveInWrongBlock) {
            // A fault in the wrong block resolves the mispredict;
            // its ops must be issued to find out.
            BSISA_ASSERT(redirect.wrongOps);
            // The wrong block was fetched in place of this one.
            icache.accessRange(redirect.wrongPc, redirect.wrongBytes);
            resolve = wrongPath(redirect.wrongOps, redirect.wrongOpCount,
                                redirect.resolveOpIdx, fetch, ~0ull);
        } else {
            // The previous unit's terminator resolves it.
            resolve = havePrev ? prevDone(redirect.resolveOpIdx) : fetch;
            if (redirect.wrongOps) {
                icache.accessRange(redirect.wrongPc, redirect.wrongBytes);
                wrongPath(redirect.wrongOps, redirect.wrongOpCount, 0u,
                          fetch, resolve);
            }
        }
        // Each fault-cascade hop costs one more redirect.
        std::uint64_t redirected = resolve + 1 + cfg.redirectPenalty;
        redirected += std::uint64_t(redirect.extraHops) *
                      (cfg.redirectPenalty + 1);
        fetch = std::max(fetch, redirected);
    }
    res.stallRedirect += fetch - fetchBase;

    const std::uint64_t afterRedirect = fetch;
    fetch = waitRoom(fetch);
    res.stallWindow += fetch - afterRedirect;

    // Instruction cache: any missing line stalls the fetch for one
    // L2 round trip (lines fill in parallel from the perfect L2).
    if (!unit.skipIcache && icache.accessRange(unit.pc, unit.bytes) > 0) {
        fetch += cfg.l2Latency;
        res.stallIcache += cfg.l2Latency;
    }
    return fetch;
}

/**
 * Per-cycle issue-slot bookkeeping over a sliding window of future
 * cycles (exposed for unit testing).
 *
 * Stored as a power-of-two circular buffer of per-cycle counts
 * indexed by (cycle & mask): slot i holds the count for the unique
 * cycle in [base, base + capacity) congruent to i, and slots for
 * cycles never allocated read zero.  A claim probes one count per
 * cycle from its floor.  Nearly every claim lands on its floor cycle
 * (99.9% of a design sweep's at issue width 16), so the first probe
 * decides; a congested run of full cycles costs one probe each.
 * advanceTo() re-zeroes the slots that leave the window, so the
 * steady state never touches the allocator; growth happens only on a
 * scheduling span longer than the initial 4096 cycles, which doubles
 * the buffer.
 */
class IssueSlots
{
  public:
    explicit IssueSlots(unsigned width) : width(width), used(4096, 0)
    {
        BSISA_ASSERT(width >= 1 && width <= maxIssueWidth,
                     "issue width outside [1, maxIssueWidth]");
    }

    /** First cycle >= @p earliest with a free slot; consumes it.
     *  A floor before the last advanceTo() cycle claims from there.
     *
     *  This is the single hottest operation of a timing sweep (one
     *  call per op per lane), so the members are hoisted into locals
     *  for the probe.  Force-inlined into the batch kernels; the rare
     *  grow path stays out of line to keep that cheap. */
    BSISA_ALWAYS_INLINE std::uint64_t
    allocate(std::uint64_t earliest)
    {
        const std::uint64_t b = base;
        const unsigned w = width;
        std::uint8_t *counts = used.data();
        std::uint64_t mask = used.size() - 1;
        std::uint64_t cycle = earliest < b ? b : earliest;
        for (;; ++cycle) {
            if (cycle - b > mask) {
                grow(cycle);
                counts = used.data();
                mask = used.size() - 1;
            }
            std::uint8_t &count = counts[cycle & mask];
            if (count < w) {
                ++count;
                return cycle;
            }
        }
    }

    /** Drop bookkeeping for cycles before @p cycle. */
    void
    advanceTo(std::uint64_t cycle)
    {
        if (cycle <= base)
            return;
        const std::uint64_t mask = used.size() - 1;
        const std::uint64_t gone =
            std::min<std::uint64_t>(cycle - base, used.size());
        for (std::uint64_t i = 0; i < gone; ++i)
            used[(base + i) & mask] = 0;
        base = cycle;
    }

  private:
    BSISA_NOINLINE void
    grow(std::uint64_t cycle)
    {
        std::size_t cap = used.size() * 2;
        while (cycle - base >= cap)
            cap *= 2;
        std::vector<std::uint8_t> bigger(cap, 0);
        for (std::size_t i = 0; i < used.size(); ++i) {
            const std::uint64_t c = base + i;
            bigger[c & (cap - 1)] = used[c & (used.size() - 1)];
        }
        used.swap(bigger);
    }

    unsigned width;
    std::uint64_t base = 0;
    std::vector<std::uint8_t> used;
};

} // namespace bsisa

#endif // BSISA_SIM_PIPELINE_HH
