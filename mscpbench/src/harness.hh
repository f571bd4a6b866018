/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: the
 * heap-allocation counter, order statistics, the in-memory span log
 * of the traced run, the host/build stamp and the run report.
 */

#ifndef MSCPBENCH_HARNESS_HH
#define MSCPBENCH_HARNESS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace mscpbench
{

/** @{ heap allocations made by this process so far. Counted by the
 *  operator new override in alloc_count.cc, which only the
 *  benchmark's own executables link; without it the count stays 0. */
extern std::atomic<std::uint64_t> g_allocs;
inline std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}
/** @} */

/** Host steady-clock time in nanoseconds (spans, run length). */
std::uint64_t nowNs();

/**
 * CPU time of the calling thread in nanoseconds. Units are timed
 * with it: the benchmark is single-threaded, so on an idle host it
 * equals wall time, and on a shared one it leaves out the time the
 * thread was not scheduled.
 */
std::uint64_t cpuNs();

/**
 * @{ The host-speed reference. One calibration pass is a fixed piece
 * of the benchmark's own code, with no simulator code in it: a
 * two-way set-associative tag store whose victims go into an
 * open-addressing table, and a small sort now and then. Its work is
 * identical on every pass, so its CPU time varies with the host
 * alone. Measured points are timed beside calibration passes, and
 * their CPU time is scaled to what it would be at the pass's
 * reference time. On a shared host both slow down together when
 * other tenants load the core; see BENCHMARK.md.
 */
std::uint64_t calibrationPass();

/** CPU time of one calibration pass on the host the benchmark was
 *  written on (the median inside benchmark runs on a 4-vCPU Intel
 *  Xeon KVM guest, gcc 12 -O3), in ns. It turns a cost in passes
 *  back into seconds on that host: "reference seconds". */
constexpr double kCalibrationRefNs = 1.2e6;

/** CPU ns of @p reps calibration passes run back to back. */
std::uint64_t calibrationNs(unsigned reps = 1);

/**
 * How much more a shared host's load moves the simulator's CPU time
 * than the pass's: the slope of log point time on log pass time.
 * Measured over minutes on every workload (BENCHMARK.md), it came out
 * between 1.1 and 2.0; this is the value in the middle.
 */
constexpr double kHostSpeedExponent = 1.5;

/** Reference ns of @p ns CPU ns measured beside passes that took
 *  @p passNs each: the time the work would take where a pass takes
 *  kCalibrationRefNs. */
double referenceNs(double ns, double passNs);
/** @} */

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/**
 * Nearest-rank percentile: the smallest sample with at least
 * p percent of the samples at or below it. @p sorted must be
 * ascending and non-empty; 0 < p <= 100.
 */
double percentile(const std::vector<double> &sorted, double p);

/** Number of samples strictly beyond the nearest-rank p-th
 *  percentile of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/** Median of unsorted samples (nearest rank); 0 when empty. */
double median(std::vector<double> samples);

/**
 * The tail a sample set supports: the highest of p50, p90, p99 and
 * p99.9 that has at least ten samples beyond it. When even p50 has
 * fewer, @c qualified is false and p50 is reported.
 */
struct Tail
{
    double p = 50;
    double value = 0;
    std::size_t count = 0;  ///< samples in the set
    std::size_t beyond = 0; ///< samples beyond the reported rank
    bool qualified = false;
};

/** Apply the tail rule to unsorted samples (non-empty). */
Tail tailPercentile(std::vector<double> samples);

/**
 * Spans of the traced run: name, start, end and parent, kept in
 * memory and written out when the run ends. Single-threaded: spans
 * nest strictly, so a child's interval lies inside its parent's.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::uint32_t name;
        std::int32_t parent; ///< index of the parent span, or -1
        std::uint64_t start; ///< ns, steady clock
        std::uint64_t end;
    };

    /** Per-name totals over every closed span of that name. */
    struct Totals
    {
        std::uint64_t count = 0;
        double totalNs = 0;
        double selfNs = 0; ///< total minus time covered by children
    };

    /** Open a span under the innermost open one; returns its id. */
    std::int32_t open(const std::string &name);
    /** Open with explicit timestamps (tests, synthetic spans). */
    std::int32_t openAt(const std::string &name, std::uint64_t start);
    void close(std::int32_t id);
    void closeAt(std::int32_t id, std::uint64_t end);

    const std::vector<Span> &spans() const { return log; }

    /** Totals and self time per span name. */
    std::map<std::string, Totals> totals() const;

    /** Chrome trace_event JSON ("X" complete events). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<std::string> names;
    std::map<std::string, std::uint32_t> ids;
    std::vector<Span> log;
    std::vector<std::int32_t> stack;
};

/** RAII span; a null log makes it free (the untraced path). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name)
        : log(log), id(log ? log->open(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (log)
            log->close(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log;
    std::int32_t id;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one benchmark run reports. */
struct Report
{
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** One line per failed check: workload, seed, point, check. */
    std::vector<std::string> failures;
    /** Metrics of the final JSON line, in print order. */
    std::vector<Metric> metrics;
    /** Further figures for the human-readable report only. */
    std::vector<Metric> notes;
    /** Metric name -> why the workload cannot measure it. */
    std::map<std::string, std::string> unavailable;
    /**
     * Every simulated statistic and count of the run (modelled
     * design and per-layer counts, never host time): identical for
     * a seed, so tests compare it across runs.
     */
    std::map<std::string, double> deterministic;

    bool correct() const { return failures.empty(); }
    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &name, double value,
              const std::string &unit)
    {
        notes.push_back({name, value, unit});
    }
};

/** Host and build identity stamped on every record. */
std::map<std::string, std::string> hostStamp();

/** JSON number with every digit (non-finite values become 0). */
std::string jsonNumber(double v);
/** JSON string literal. */
std::string jsonString(const std::string &s);

/** The record line: stamp, workload, seed and all figures. */
std::string recordJson(const Report &r);
/** The result line printed last: correct/attempted/failed/metrics. */
std::string resultJson(const Report &r);

} // namespace mscpbench

#endif // MSCPBENCH_HARNESS_HH
