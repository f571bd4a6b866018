/**
 * @file
 * Self-tests of the benchmark harness: the tail-percentile rule,
 * span self time, the calibration pass's fixed work, and that every
 * simulated statistic and count of a run repeats exactly for a seed
 * and changes under another seed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <sstream>

#include "harness.hh"
#include "workloads.hh"

using namespace mscpbench;

namespace
{

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

} // anonymous namespace

TEST(Percentile, NearestRank)
{
    const auto v = iota(10);
    EXPECT_EQ(percentile(v, 50), 5);
    EXPECT_EQ(percentile(v, 90), 9);
    EXPECT_EQ(percentile(v, 91), 10);
    EXPECT_EQ(percentile(v, 100), 10);
    EXPECT_EQ(percentile({7.0}, 99), 7);
    EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, TailRuleNeedsTenSamplesBeyond)
{
    // Fewer than 20 samples: even p50 has < 10 beyond it.
    Tail t = tailPercentile(iota(19));
    EXPECT_FALSE(t.qualified);
    EXPECT_EQ(t.p, 50);
    EXPECT_EQ(t.count, 19u);
    EXPECT_EQ(t.beyond, 9u);

    t = tailPercentile(iota(20));
    EXPECT_TRUE(t.qualified);
    EXPECT_EQ(t.p, 50);
    EXPECT_EQ(t.beyond, 10u);

    t = tailPercentile(iota(99)); // p90 would leave 9 beyond
    EXPECT_EQ(t.p, 50);

    t = tailPercentile(iota(100));
    EXPECT_EQ(t.p, 90);
    EXPECT_EQ(t.value, 90);
    EXPECT_EQ(t.beyond, 10u);

    t = tailPercentile(iota(1000));
    EXPECT_EQ(t.p, 99);
    EXPECT_EQ(t.value, 990);

    t = tailPercentile(iota(10000));
    EXPECT_EQ(t.p, 99.9);
    EXPECT_EQ(t.count, 10000u);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    SpanLog log;
    const auto root = log.openAt("root", 0);
    const auto a = log.openAt("a", 10);
    log.closeAt(a, 40);
    const auto b = log.openAt("b", 50);
    const auto c = log.openAt("a", 55);
    log.closeAt(c, 60);
    log.closeAt(b, 70);
    log.closeAt(root, 100);

    const auto t = log.totals();
    EXPECT_EQ(t.at("root").count, 1u);
    EXPECT_EQ(t.at("root").totalNs, 100);
    EXPECT_EQ(t.at("root").selfNs, 100 - 30 - 20);
    EXPECT_EQ(t.at("b").selfNs, 15);
    EXPECT_EQ(t.at("a").count, 2u);
    EXPECT_EQ(t.at("a").totalNs, 35);
    EXPECT_EQ(t.at("a").selfNs, 35);
    EXPECT_EQ(log.spans()[static_cast<std::size_t>(c)].parent, b);

    std::ostringstream os;
    log.writeChromeTrace(os);
    EXPECT_NE(os.str().find("\"name\":\"b\""), std::string::npos);
    EXPECT_NE(os.str().find("\"parent\":2"), std::string::npos);
}

TEST(Calibration, EveryPassDoesTheSameWork)
{
    const std::uint64_t first = calibrationPass();
    EXPECT_NE(first, 0u);
    EXPECT_EQ(calibrationPass(), first);
    EXPECT_GT(calibrationNs(2), 0u);
}

TEST(Calibration, ReferenceTimeScalesWithThePass)
{
    EXPECT_DOUBLE_EQ(referenceNs(5000, kCalibrationRefNs), 5000);
    // A host on which the pass runs twice as slowly: the work's time
    // is scaled down by 2^kHostSpeedExponent.
    EXPECT_DOUBLE_EQ(referenceNs(5000, 2 * kCalibrationRefNs),
                     5000 / std::pow(2.0, kHostSpeedExponent));
}

TEST(Spans, MustCloseInnermostFirst)
{
    SpanLog log;
    const auto outer = log.open("outer");
    log.open("inner");
    EXPECT_THROW(log.close(outer), std::logic_error);
}

namespace
{

Report
quickRun(const std::string &workload, std::uint64_t seed, bool trace)
{
    Options o;
    o.workload = workload;
    o.seed = seed;
    o.seconds = 0; // one round
    o.trace = trace;
    o.quick = true;
    SpanLog spans;
    return runWorkload(o, spans);
}

} // anonymous namespace

class Determinism : public testing::TestWithParam<std::tuple<std::string, bool>>
{};

TEST_P(Determinism, SameSeedRepeatsOtherSeedDiffers)
{
    const auto &[workload, trace] = GetParam();
    const Report a = quickRun(workload, 1, trace);
    const Report b = quickRun(workload, 1, trace);
    const Report c = quickRun(workload, 2, trace);
    for (const Report *r : {&a, &b, &c}) {
        EXPECT_TRUE(r->correct());
        EXPECT_EQ(r->failed, 0u);
        EXPECT_GE(r->attempted, 1u);
    }
    EXPECT_FALSE(a.deterministic.empty());
    EXPECT_EQ(a.deterministic, b.deterministic);
    EXPECT_NE(a.deterministic, c.deterministic);
    EXPECT_EQ(a.deterministic.count("sim_bits_per_ref"), 1u);

    const auto &specs = trace ? perLayerMetrics() : endToEndMetrics();
    ASSERT_EQ(a.metrics.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(a.metrics[i].name, specs[i].name);
        EXPECT_EQ(a.metrics[i].unit, specs[i].unit);
        if (!trace) {
            EXPECT_GT(a.metrics[i].value, 0) << specs[i].name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Determinism,
    testing::Combine(testing::Values("paper-grid", "shared-concurrent",
                                     "evict-hardened", "verify-audit"),
                     testing::Bool()),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) +
            (std::get<1>(info.param) ? "_traced" : "_untraced");
        for (char &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

TEST(Workloads, UnknownNameIsRejected)
{
    Options o;
    o.workload = "no-such-workload";
    SpanLog spans;
    EXPECT_THROW(runWorkload(o, spans), std::invalid_argument);
}
