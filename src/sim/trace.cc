/**
 * @file
 * Trace capture implementation.
 */

#include "sim/trace.hh"

#include "support/logging.hh"

namespace bsisa
{

ExecTrace
captureTrace(const Module &module, Interp::Limits limits)
{
    ExecTrace trace;
    Interp interp(module, limits);
    BlockEvent ev;
    while (interp.step(ev)) {
        if (trace.ownedEvents.size() == maxTraceEntries ||
            trace.ownedAddrs.size() + ev.memCount > maxTraceEntries)
            fatal("trace capture: the run passes ", maxTraceEntries,
                  " committed blocks or memory addresses, the most "
                  "one trace holds; lower its op budget");
        TraceEvent te;
        te.func = ev.func;
        te.block = ev.block;
        te.exit = ev.exit;
        te.taken = ev.taken;
        te.memBegin = std::uint32_t(trace.ownedAddrs.size());
        trace.ownedAddrs.insert(trace.ownedAddrs.end(), ev.memAddrs,
                                ev.memAddrs + ev.memCount);
        trace.ownedEvents.push_back(te);
        trace.tailFunc = ev.nextFunc;
        trace.tailBlock = ev.nextBlock;
    }
    trace.dynOps = interp.dynOps();
    trace.dynBlocks = interp.dynBlocks();
    trace.sealOwned();
    return trace;
}

ProfileData
profileFromTrace(const ExecTrace &trace)
{
    ProfileData profile;
    for (std::size_t i = 0; i < trace.eventCount; ++i) {
        const TraceEvent &ev = trace.events[i];
        if (ev.exit == ExitKind::Trap)
            profile.record(ev.func, ev.block, ev.taken);
    }
    return profile;
}

} // namespace bsisa
