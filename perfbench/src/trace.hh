/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A Span is opened around one call into an rtl2uspec module from the
 * benchmark's own code (the program itself carries no tracing). Spans
 * record name, thread, start, end and the enclosing span on the same
 * thread; they stay in memory and are written out once, as a Chrome
 * trace-event JSON file, when the run ends. With the tracer disabled
 * a Span reads one atomic flag and records nothing, so the untraced
 * runs that produce the end-to-end metrics pay nothing measurable.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb
{

struct SpanRecord
{
    std::string name;
    uint32_t tid = 0;
    int64_t id = 0;
    int64_t parent = -1; ///< enclosing span on the same thread; -1: root
    int64_t startUs = 0; ///< microseconds since the tracer's epoch
    int64_t endUs = 0;
};

class Tracer
{
  public:
    static Tracer &global();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Drop every recorded span (a fresh trace). */
    void clear();
    std::vector<SpanRecord> spans() const;

    /** Chrome trace-event JSON ("traceEvents" of "X" events). */
    std::string chromeJson() const;

  private:
    friend class Span;
    Tracer();
    int64_t nowUs() const;
    void record(SpanRecord rec);

    std::atomic<bool> enabled_{false};
    std::atomic<int64_t> next_id_{0};
    int64_t epoch_ns_ = 0;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; ///< guarded by mu_
};

/** RAII span on the global tracer; a no-op while it is disabled. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
    SpanRecord rec_;
};

} // namespace pb

#endif // PERFBENCH_TRACE_HH
