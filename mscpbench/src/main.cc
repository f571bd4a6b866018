/**
 * @file
 * mscpbench: runs one workload and prints a human-readable report,
 * a stamped JSON record, and as its last line the result object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exits 1 when any correctness check failed, 2 on a usage error.
 *
 *   mscpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file>]
 *   mscpbench --list-metrics
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hh"
#include "workloads.hh"

using namespace mscpbench;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n"
                 "       %s --list-metrics\nworkloads:",
                 argv0, argv0);
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

void
listMetrics()
{
    auto print = [](const char *kind, const std::vector<MetricSpec> &ms) {
        for (const MetricSpec &m : ms)
            std::printf("%s %s %s\n", kind, m.name.c_str(), m.unit.c_str());
    };
    print("end_to_end", endToEndMetrics());
    print("per_layer", perLayerMetrics());
}

void
printHuman(const Report &r)
{
    std::printf("# mscpbench workload=%s seed=%llu trace=%d\n",
                r.workload.c_str(),
                static_cast<unsigned long long>(r.seed), r.trace ? 1 : 0);
    for (const auto &[k, v] : hostStamp())
        std::printf("# host %s: %s\n", k.c_str(), v.c_str());
    for (const Metric &m : r.metrics)
        std::printf("%-44s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : r.notes)
        std::printf("%-44s %20.6f %s (report only)\n", m.name.c_str(),
                    m.value, m.unit.c_str());
    for (const auto &[k, why] : r.unavailable)
        std::printf("unavailable %s: %s\n", k.c_str(), why.c_str());
    for (const std::string &f : r.failures)
        std::printf("%s\n", f.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string traceOut;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            haveWorkload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            if (!(opt.seconds >= 0))
                return usage(argv[0]);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage(argv[0]);
            opt.trace = v == "1";
        } else if (a == "--trace-out") {
            traceOut = v;
        } else {
            return usage(argv[0]);
        }
        if (end && *end)
            return usage(argv[0]);
    }
    if (!haveWorkload)
        return usage(argv[0]);

    SpanLog spans;
    Report rep;
    try {
        rep = runWorkload(opt, spans);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return usage(argv[0]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "FAIL workload=%s seed=%llu check=exception "
                     "(%s)\n", opt.workload.c_str(),
                     static_cast<unsigned long long>(opt.seed), e.what());
        return 1;
    }

    if (opt.trace && !traceOut.empty()) {
        std::ofstream os(traceOut);
        spans.writeChromeTrace(os);
        if (!os)
            std::fprintf(stderr, "cannot write trace to %s\n",
                         traceOut.c_str());
    }
    printHuman(rep);
    std::printf("%s\n", recordJson(rep).c_str());
    std::printf("%s\n", resultJson(rep).c_str());
    return rep.correct() ? 0 : 1;
}
