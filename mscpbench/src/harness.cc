#include "harness.hh"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#ifndef MSCPBENCH_BUILD_TYPE
#define MSCPBENCH_BUILD_TYPE "unknown"
#endif

namespace mscpbench
{

std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
        static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace
{

struct CalLine
{
    std::uint32_t tag = 0;
    std::uint32_t stamp = 0; ///< last use; 0 = invalid
};

} // anonymous namespace

std::uint64_t
calibrationPass()
{
    // Rebuilt by every pass, so every pass does the same work.
    static std::vector<CalLine> lines(2 * 4096);       // 64 KiB
    static std::vector<std::uint64_t> victims(1u << 16); // 512 KiB
    static std::vector<std::uint32_t> keys(1024);
    std::fill(lines.begin(), lines.end(), CalLine{});
    std::fill(victims.begin(), victims.end(), 0);
    std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
    for (std::uint32_t i = 1; i <= 24000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        auto a = static_cast<std::uint32_t>(x >> 40);
        if ((x >> 20) & 1)
            a &= 0xffff; // half the references hit a hot region
        const std::uint32_t set = (a >> 2) & 4095, tag = a >> 14;
        CalLine *l = &lines[2 * set];
        int way = l[0].stamp && l[0].tag == tag ? 0
            : l[1].stamp && l[1].tag == tag     ? 1
                                                : -1;
        if (way < 0) {
            // Miss: evict the least recently used way and look its
            // block up among earlier victims (linear probing).
            way = l[0].stamp <= l[1].stamp ? 0 : 1;
            const std::uint64_t k =
                ((static_cast<std::uint64_t>(l[way].tag) << 12) | set) + 1;
            std::size_t h = (k * 0x9e3779b97f4a7c15ull) >> 48;
            while (victims[h] && victims[h] != k)
                h = (h + 1) & (victims.size() - 1);
            sum += victims[h] == k;
            victims[h] = k;
            l[way].tag = tag;
        }
        l[way].stamp = i;
        if ((i & 2047) == 0) {
            for (std::uint32_t &v : keys) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                v = static_cast<std::uint32_t>(x >> 33);
            }
            std::sort(keys.begin(), keys.end());
            sum += keys[(i >> 11) & 1023];
        }
    }
    return sum;
}

std::uint64_t
calibrationNs(unsigned reps)
{
    // The checksum escapes, so no pass can be optimised away.
    static std::atomic<std::uint64_t> sink{0};
    const std::uint64_t t0 = cpuNs();
    std::uint64_t sum = 0;
    for (unsigned r = 0; r < reps; ++r)
        sum += calibrationPass();
    sink.store(sum, std::memory_order_relaxed);
    return cpuNs() - t0;
}

double
referenceNs(double ns, double passNs)
{
    return ns * std::pow(kCalibrationRefNs / passNs, kHostSpeedExponent);
}

double
peakRssMb()
{
    // VmHWM belongs to this program's address space. getrusage's
    // ru_maxrss would also count the launching process's footprint
    // at exec time.
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0;
}

namespace
{

/** 1-based nearest rank; the slack absorbs binary rounding of p. */
std::size_t
nearestRank(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // anonymous namespace

double
percentile(const std::vector<double> &sorted, double p)
{
    return sorted[nearestRank(sorted.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n - nearestRank(n, p);
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    return percentile(samples, 50);
}

Tail
tailPercentile(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Tail t;
    t.count = samples.size();
    for (double p : {99.9, 99.0, 90.0, 50.0}) {
        if (samplesBeyond(t.count, p) >= 10) {
            t.p = p;
            t.qualified = true;
            break;
        }
    }
    t.value = percentile(samples, t.p);
    t.beyond = samplesBeyond(t.count, t.p);
    return t;
}

std::int32_t
SpanLog::open(const std::string &name)
{
    return openAt(name, nowNs());
}

std::int32_t
SpanLog::openAt(const std::string &name, std::uint64_t start)
{
    auto [it, fresh] =
        ids.try_emplace(name, static_cast<std::uint32_t>(names.size()));
    if (fresh)
        names.push_back(name);
    const std::int32_t parent = stack.empty() ? -1 : stack.back();
    log.push_back({it->second, parent, start, start});
    const auto id = static_cast<std::int32_t>(log.size() - 1);
    stack.push_back(id);
    return id;
}

void
SpanLog::close(std::int32_t id)
{
    closeAt(id, nowNs());
}

void
SpanLog::closeAt(std::int32_t id, std::uint64_t end)
{
    if (stack.empty() || stack.back() != id)
        throw std::logic_error("SpanLog: spans must close innermost "
                               "first");
    stack.pop_back();
    log[static_cast<std::size_t>(id)].end = end;
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::vector<double> childNs(log.size(), 0.0);
    for (const Span &s : log)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end - s.start);
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Span &s = log[i];
        const double dur = static_cast<double>(s.end - s.start);
        Totals &t = out[names[s.name]];
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur - childNs[i];
    }
    return out;
}

void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    const std::uint64_t origin = log.empty() ? 0 : log.front().start;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Span &s = log[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%zu,\"parent\":%d}}",
                      static_cast<double>(s.start - origin) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3, i,
                      static_cast<int>(s.parent));
        os << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(names[s.name])
           << ',' << buf;
    }
    os << "\n]}\n";
}

namespace
{

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto pos = line.find(':');
            if (pos != std::string::npos) {
                auto v = line.substr(pos + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    }
    return "unknown";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

} // anonymous namespace

std::map<std::string, std::string>
hostStamp()
{
    std::map<std::string, std::string> s;
    s["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    s["cpu_model"] = cpuModel();
#if defined(__clang__)
    s["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    s["compiler"] = std::string("gcc ") + __VERSION__;
#else
    s["compiler"] = "unknown";
#endif
    s["build_type"] = MSCPBENCH_BUILD_TYPE;
    // The simulator's compile switches, as its headers see them.
#ifdef MSCP_TRACE_DISABLED
    s["mscp_trace"] = "OFF";
#else
    s["mscp_trace"] = "ON";
#endif
#ifdef MSCP_METRICS_DISABLED
    s["mscp_metrics"] = "OFF";
#else
    s["mscp_metrics"] = "ON";
#endif
    // run.py resolves these from the checkout: the git commit when
    // the tree is a repository, and a digest of the simulator
    // sources either way.
    s["git_commit"] = envOr("MSCPBENCH_GIT_COMMIT", "none");
    s["source_digest"] = envOr("MSCPBENCH_SOURCE_DIGEST", "none");
    return s;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

namespace
{

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i)
            out += ", ";
        out += jsonString(ms[i].name) + ": {\"value\": " +
            jsonNumber(ms[i].value) + ", \"unit\": " +
            jsonString(ms[i].unit) + "}";
    }
    return out + "}";
}

} // anonymous namespace

std::string
recordJson(const Report &r)
{
    std::string out = "{\"record\": \"mscpbench\", \"host\": {";
    bool first = true;
    for (const auto &[k, v] : hostStamp()) {
        out += (first ? "" : ", ") + jsonString(k) + ": " +
            jsonString(v);
        first = false;
    }
    out += "}, \"workload\": " + jsonString(r.workload) +
        ", \"seed\": " + std::to_string(r.seed) +
        ", \"trace\": " + (r.trace ? "true" : "false") +
        ", \"metrics\": " + metricsJson(r.metrics) +
        ", \"notes\": " + metricsJson(r.notes) + ", \"unavailable\": {";
    first = true;
    for (const auto &[k, v] : r.unavailable) {
        out += (first ? "" : ", ") + jsonString(k) + ": " +
            jsonString(v);
        first = false;
    }
    return out + "}}";
}

std::string
resultJson(const Report &r)
{
    return std::string("{\"correct\": ") +
        (r.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(r.attempted) +
        ", \"failed\": " + std::to_string(r.failed) +
        ", \"metrics\": " + metricsJson(r.metrics) + "}";
}

} // namespace mscpbench
