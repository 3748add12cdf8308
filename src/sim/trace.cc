/**
 * @file
 * Trace capture implementation.
 */

#include "sim/trace.hh"

namespace bsisa
{

ExecTrace
captureTrace(const Module &module, Interp::Limits limits)
{
    ExecTrace trace;
    Interp interp(module, limits);
    BlockEvent ev;
    while (interp.step(ev)) {
        TraceEvent te;
        te.func = ev.func;
        te.block = ev.block;
        te.nextFunc = ev.nextFunc;
        te.nextBlock = ev.nextBlock;
        te.exit = ev.exit;
        te.taken = ev.taken;
        te.memBegin = trace.ownedAddrs.size();
        te.memCount = ev.memCount;
        trace.ownedAddrs.insert(trace.ownedAddrs.end(), ev.memAddrs,
                                ev.memAddrs + ev.memCount);
        trace.ownedEvents.push_back(te);
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
