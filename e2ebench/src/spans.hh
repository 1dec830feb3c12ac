/**
 * @file
 * In-memory span recorder for the traced benchmark run. Spans are
 * opened and closed by the benchmark around its calls into the
 * simulator's public API, never inside the program, so the per-layer
 * figures come from outside what they measure. A disabled recorder
 * costs one branch per span and records nothing: the untraced run
 * executes the same code.
 *
 * Spans nest strictly (one recording thread), which is what makes a
 * span's self time its duration minus its direct children's.
 */

#ifndef E2EBENCH_SPANS_HH
#define E2EBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;  //!< index of the enclosing span, -1 for a root
    uint64_t op = 0;  //!< the operation (composite, job, hit) it serves
    int64_t childNs = 0;

    double durationS() const { return double(endNs - startNs) * 1e-9; }
    double selfS() const { return double(endNs - startNs - childNs) * 1e-9; }
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    bool enabled() const { return enabled_; }

    /** Start a new operation id; later spans carry it. */
    void beginOp() { ++op_; }

    /** RAII span: open in the constructor, close in the destructor. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in seconds of the spans named @p name recorded at or
     *  after index @p from, in recording order. */
    std::vector<double> durations(size_t from, std::string_view name) const;

    /** Their sum. */
    double total(size_t from, std::string_view name) const;

    /** The spans as Chrome trace-event JSON (opens in Perfetto). */
    std::string chromeJson() const;

  private:
    int64_t nowNs() const;

    bool enabled_;
    uint64_t op_ = 0;
    int open_ = -1;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

} // namespace e2e

#endif // E2EBENCH_SPANS_HH
