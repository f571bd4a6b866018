/**
 * @file
 * The benchmark's workloads and the metric lists it reports.
 *
 * Every workload builds its inputs from the seed alone, starts each
 * simulated run with empty caches, measures untraced for the given
 * number of seconds and checks every output. With tracing on, the
 * run also records spans around each layer's public calls and
 * derives the per-layer metrics from them (see BENCHMARK.md).
 */

#ifndef MSCPBENCH_WORKLOADS_HH
#define MSCPBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"

namespace mscpbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Fewer references per point, for the harness self-tests only.
     *  Every configuration stays the one the benchmark measures. */
    bool quick = false;
};

/** Name and unit of one reported metric. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

const std::vector<std::string> &workloadNames();
/** The final-line metrics of an untraced run, in print order. */
const std::vector<MetricSpec> &endToEndMetrics();
/** The final-line metrics of a traced run, in print order. */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Run one workload. Traced runs append their spans to @p spans.
 * Throws std::invalid_argument for an unknown workload name.
 */
Report runWorkload(const Options &opt, SpanLog &spans);

} // namespace mscpbench

#endif // MSCPBENCH_WORKLOADS_HH
