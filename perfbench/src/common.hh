/**
 * @file
 * Shared pieces of the perfbench binary: clocks, order statistics,
 * the allocation counter, the span recorder behind the traced run,
 * and the metric set every workload fills.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

/**
 * splitmix64. The benchmark draws its inputs with its own generator,
 * not the library's, so the inputs of a seed never change with the
 * code under test.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    int below(int n) { return int(next() % std::uint64_t(n)); }

    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) / 9007199254740992.0; }

  private:
    std::uint64_t state_;
};

/** Nearest-rank quantile of @p v (0 for an empty sample). */
double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/**
 * One timed unit of work: a pass, or a daemon request. @c at is when
 * it finished, in seconds since the measured window opened.
 */
struct Sample
{
    double at = 0.0;
    double ms = 0.0;
    double cells = 0.0;
    double ops = 0.0;
};

/**
 * The measured window, cut into one-second slices. On a shared VM the
 * host takes CPU time from the guest in bursts of seconds, and a burst
 * slows every thread waiting on a stolen vCPU. Statistics are the
 * median over slices of a per-slice statistic: the typical second,
 * which a burst cannot drag along the way it drags a statistic over
 * the whole window.
 */
class Window
{
  public:
    Window() : start_(Clock::now()) {}

    Clock::time_point start() const { return start_; }
    double elapsed() const { return secondsSince(start_); }

    /** Median over slices of each slice's @p q quantile of ms. */
    double sliceQuantileMs(const std::vector<Sample> &samples, double q) const;

    /** Median over the whole slices so far of the per-slice sum of
     *  @p field. */
    double sliceRate(const std::vector<Sample> &samples,
                     double Sample::*field) const;

  private:
    Clock::time_point start_;
};

/** Geometric mean of positive values (0 for an empty sample). */
double geomean(const std::vector<double> &v);

/** Operator-new calls in this process so far (all threads). */
std::uint64_t allocCount();

/** Peak resident set (VmHWM) of process @p pid (0 = self), MiB. */
double peakRssMb(int pid = 0);

/** Failure of an output check: the run stops with no result line. */
[[noreturn]] void checkFailed(const std::string &what);

/**
 * What one run reports: the end-to-end metrics of the untraced
 * passes and, for a traced run, the per-layer metrics. Names are
 * those of BENCHMARK.json; main() fills unmeasured layers with 0.
 */
struct RunOutput
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * In-memory spans of the traced run. A span is a named interval with
 * a parent; a layer's self time is its duration minus the time its
 * child spans cover. Spans are written as Chrome trace-event JSON at
 * exit. Not thread-safe: one recorder per thread.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent;
        std::int64_t childNs;
    };

    explicit SpanRecorder(int tid = 1) : tid_(tid) {}

    int
    begin(const char *name)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nowNs(), 0, parent, 0});
        open_.push_back(int(spans_.size()) - 1);
        return open_.back();
    }

    void
    end()
    {
        Span &s = spans_[std::size_t(open_.back())];
        open_.pop_back();
        s.endNs = nowNs();
        if (s.parent >= 0)
            spans_[std::size_t(s.parent)].childNs += s.endNs - s.startNs;
    }

    /** Self time in µs per span name, over spans from @p first on. */
    std::map<std::string, double> selfUs(std::size_t first = 0) const;

    std::size_t size() const { return spans_.size(); }
    const std::vector<Span> &spans() const { return spans_; }
    int tid() const { return tid_; }

  private:
    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    int tid_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on @p rec; a null recorder records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name) : rec_(rec)
    {
        if (rec_)
            rec_->begin(name);
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
};

/** Write @p recorders as one Chrome trace-event JSON file. */
void writeChromeTrace(const std::string &path,
                      const std::vector<const SpanRecorder *> &recorders);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
