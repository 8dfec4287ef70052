/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are recorded only in the benchmark's own code, around its calls
 * into each simulator layer. They stay in memory and are written out
 * once, at exit, as Chrome trace-event JSON (chrome://tracing,
 * Perfetto). Every span carries the id of the cell it belongs to and
 * the index of its parent span, so one cell's spans form a tree.
 */

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

class SpanTrace
{
  public:
    using Clock = std::chrono::steady_clock;
    static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

    struct Span {
        std::string name;
        std::uint64_t cell = 0;
        std::size_t parent = kNoParent;
        double start_s = 0.0; //!< seconds since the trace origin
        double end_s = 0.0;
    };

    SpanTrace() : origin_(Clock::now()) {}

    /** Opens a span under the innermost open one. */
    void begin(const std::string &name, std::uint64_t cell);
    /** Closes the innermost open span. */
    void end();
    /** Records a closed span under the innermost open one. */
    void add(const std::string &name, std::uint64_t cell, double start_s,
             double end_s);

    double now() const;
    const std::vector<Span> &spans() const { return spans_; }

    /** Writes every span as Chrome trace-event JSON; false on error. */
    bool writeChromeJson(const std::string &path,
                         const std::string &process_name) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** RAII span; a null trace records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTrace *trace, const std::string &name,
               std::uint64_t cell)
        : trace_(trace)
    {
        if (trace_)
            trace_->begin(name, cell);
    }
    ~ScopedSpan()
    {
        if (trace_)
            trace_->end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTrace *trace_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_H_
