/**
 * @file
 * In-memory span recorder for the traced pass.
 *
 * Spans are recorded around the benchmark's own calls into each
 * layer's public functions (the library itself is not instrumented).
 * A span names the layer it times, and records its start, end,
 * parent span and host thread.  Recording is off unless a SpanLog is
 * active, so the untraced passes pay one branch per call site.
 *
 * Parents cross threads: a span opened inside a parallelFor task
 * names as its parent the span that was current on the thread that
 * started the parallelFor (see ParentScope), so every span of a pass
 * hangs off the pass's root.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One closed (or still open: endNs < 0) span. */
struct SpanRecord
{
    const char *name = "";
    std::int64_t startNs = 0;   //!< since the log's origin
    std::int64_t endNs = -1;
    std::int32_t parent = -1;   //!< index into the log, -1 = root
    std::uint32_t thread = 0;   //!< small per-thread id
    bool layer = false;         //!< counts toward layer attribution
};

/** The spans of one traced run, in open order. */
class SpanLog
{
  public:
    SpanLog() : origin(Clock::now()) {}

    std::int32_t open(const char *name, bool layer);
    void close(std::int32_t id);

    /** Nanoseconds since the log's origin. */
    std::int64_t now() const;

    std::vector<SpanRecord> records() const;

  private:
    Clock::time_point origin;
    mutable std::mutex mutex;
    std::vector<SpanRecord> spans;  //!< guarded by mutex
};

/** Route spans to @p log (nullptr switches tracing off). */
void setActiveLog(SpanLog *log);

/** True while a SpanLog is active. */
bool tracing();

/** The innermost open span on this thread (-1 when none). */
std::int32_t currentSpan();

/** RAII span; a no-op when tracing is off.  @p layer spans are the
 *  ones the per-layer attribution counts; the rest (pass, operation)
 *  only structure the trace. */
class Span
{
  public:
    explicit Span(const char *name, bool layer = true);
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close early (idempotent). */
    void end();

  private:
    std::int32_t id = -1;
    std::int32_t saved = -1;
};

/** Makes @p parent the current span of the calling thread for the
 *  scope's lifetime (used at the top of parallelFor tasks). */
class ParentScope
{
  public:
    explicit ParentScope(std::int32_t parent);
    ~ParentScope();
    ParentScope(const ParentScope &) = delete;
    ParentScope &operator=(const ParentScope &) = delete;

  private:
    std::int32_t saved;
};

/** One layer's totals over a traced run. */
struct LayerTotals
{
    std::string name;
    std::uint64_t calls = 0;
    double busySeconds = 0.0;  //!< span time summed over threads
    double selfSeconds = 0.0;  //!< busy minus same-thread layer children
    /** Wall time attributed to the layer: each instant of the run is
     *  split equally among the innermost layer spans open at that
     *  instant, so the layers' wall shares plus the unattributed time
     *  sum exactly to the run's wall time. */
    double wallSeconds = 0.0;
};

struct TraceSummary
{
    double wallSeconds = 0.0;
    double unattributedSeconds = 0.0;
    std::vector<LayerTotals> layers;  //!< sorted by name

    const LayerTotals *find(const std::string &name) const;
};

/** Attribute the layer spans of @p spans over [beginNs, endNs]. */
TraceSummary summarize(const std::vector<SpanRecord> &spans,
                       std::int64_t beginNs, std::int64_t endNs);

/** Write @p spans as Chrome trace-event JSON (chrome://tracing). */
bool writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
