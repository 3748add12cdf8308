/**
 * @file
 * Span recorder, per-layer attribution and Chrome trace output.
 */

#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>

namespace perfbench
{

namespace
{

std::atomic<SpanLog *> activeLog{nullptr};
std::atomic<std::uint32_t> nextThreadId{0};
thread_local std::int32_t current = -1;
thread_local std::uint32_t threadId = nextThreadId.fetch_add(1);

} // namespace

std::int64_t
SpanLog::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

std::int32_t
SpanLog::open(const char *name, bool layer)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = current;
    rec.thread = threadId;
    rec.layer = layer;
    std::lock_guard<std::mutex> lock(mutex);
    rec.startNs = now();
    spans.push_back(rec);
    return std::int32_t(spans.size() - 1);
}

void
SpanLog::close(std::int32_t id)
{
    const std::int64_t t = now();
    std::lock_guard<std::mutex> lock(mutex);
    spans[std::size_t(id)].endNs = t;
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans;
}

void
setActiveLog(SpanLog *log)
{
    activeLog.store(log);
    current = -1;
}

bool
tracing()
{
    return activeLog.load(std::memory_order_relaxed) != nullptr;
}

std::int32_t
currentSpan()
{
    return current;
}

Span::Span(const char *name, bool layer)
{
    SpanLog *log = activeLog.load(std::memory_order_relaxed);
    if (!log)
        return;
    saved = current;
    id = log->open(name, layer);
    current = id;
}

void
Span::end()
{
    if (id < 0)
        return;
    if (SpanLog *log = activeLog.load(std::memory_order_relaxed))
        log->close(id);
    current = saved;
    id = -1;
}

ParentScope::ParentScope(std::int32_t parent) : saved(current)
{
    current = parent;
}

ParentScope::~ParentScope()
{
    current = saved;
}

const LayerTotals *
TraceSummary::find(const std::string &name) const
{
    for (const LayerTotals &l : layers)
        if (l.name == name)
            return &l;
    return nullptr;
}

TraceSummary
summarize(const std::vector<SpanRecord> &spans, std::int64_t beginNs,
          std::int64_t endNs)
{
    const std::size_t n = spans.size();
    // Nearest enclosing layer span of every span (-1 = none).
    std::vector<std::int32_t> layerParent(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        std::int32_t p = spans[i].parent;
        while (p >= 0 && !spans[std::size_t(p)].layer)
            p = spans[std::size_t(p)].parent;
        layerParent[i] = p;
    }

    std::map<std::string, LayerTotals> totals;
    std::vector<double> childSameThread(n, 0.0);
    std::vector<std::size_t> layerSpans;
    for (std::size_t i = 0; i < n; ++i) {
        const SpanRecord &s = spans[i];
        if (!s.layer || s.endNs < s.startNs)
            continue;
        layerSpans.push_back(i);
        const double secs = double(s.endNs - s.startNs) * 1e-9;
        LayerTotals &t = totals[s.name];
        t.name = s.name;
        ++t.calls;
        t.busySeconds += secs;
        const std::int32_t p = layerParent[i];
        if (p >= 0 && spans[std::size_t(p)].thread == s.thread)
            childSameThread[std::size_t(p)] += secs;
    }
    for (std::size_t i : layerSpans) {
        const SpanRecord &s = spans[i];
        totals[s.name].selfSeconds +=
            double(s.endNs - s.startNs) * 1e-9 - childSameThread[i];
    }

    // Sweep line over the clipped layer spans: between consecutive
    // events, the open spans with no open layer child share the
    // interval equally.
    struct Event
    {
        std::int64_t t;
        bool open;
        std::size_t span;
    };
    std::vector<Event> events;
    for (std::size_t i : layerSpans) {
        const std::int64_t a = std::max(spans[i].startNs, beginNs);
        const std::int64_t b = std::min(spans[i].endNs, endNs);
        if (b <= a)
            continue;
        events.push_back({a, true, i});
        events.push_back({b, false, i});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &x, const Event &y) {
                  return x.t != y.t ? x.t < y.t : (!x.open && y.open);
              });
    std::vector<int> openChildren(n, 0);
    std::vector<std::size_t> open;
    std::int64_t covered = 0;
    std::int64_t last = beginNs;
    for (const Event &e : events) {
        if (e.t > last && !open.empty()) {
            std::vector<std::size_t> leaves;
            for (std::size_t s : open)
                if (openChildren[s] == 0)
                    leaves.push_back(s);
            const double share =
                double(e.t - last) * 1e-9 / double(leaves.size());
            for (std::size_t s : leaves)
                totals[spans[s].name].wallSeconds += share;
            covered += e.t - last;
        }
        last = e.t;
        const std::int32_t p = layerParent[e.span];
        if (e.open) {
            open.push_back(e.span);
            if (p >= 0)
                ++openChildren[std::size_t(p)];
        } else {
            open.erase(std::find(open.begin(), open.end(), e.span));
            if (p >= 0)
                --openChildren[std::size_t(p)];
        }
    }

    TraceSummary out;
    out.wallSeconds = double(endNs - beginNs) * 1e-9;
    out.unattributedSeconds = double(endNs - beginNs - covered) * 1e-9;
    for (auto &[name, t] : totals)
        out.layers.push_back(t);
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    bool first = true;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        if (s.endNs < s.startNs)
            continue;
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", "
                     "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                     "\"pid\": 1, \"tid\": %u, \"args\": {\"id\": %zu, "
                     "\"parent\": %d}}",
                     first ? "" : ",", s.name,
                     s.layer ? "layer" : "structure",
                     double(s.startNs) * 1e-3,
                     double(s.endNs - s.startNs) * 1e-3, s.thread, i,
                     s.parent);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
