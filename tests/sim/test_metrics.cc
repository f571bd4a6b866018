/**
 * @file
 * Unit tests for the windowed-metrics subsystem: registry shapes,
 * disabled-path no-ops, lazy window sampling, ring wraparound and
 * overflow accounting, per-shard merge determinism (order
 * independence and carry-forward), the JSON Lines exporter and the
 * Perfetto counter-track export spliced into a Chrome trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "sim/eventq.hh"
#include "sim/metrics.hh"

#include "json_checker.hh"

using namespace mscp;
using mscp::test::JsonChecker;
using mscp::test::countOccurrences;

namespace
{

/** A small schema exercising every series kind. */
struct Schema
{
    MetricsRegistry reg;
    MetricId refs, depth, lat, wait;

    Schema()
        : refs(reg.counter("refs")), depth(reg.gauge("depth")),
          lat(reg.histogram("lat")), wait(reg.grid("wait", 2, 4))
    {
    }
};

} // anonymous namespace

TEST(Metrics, RegistryAssignsDisjointSlots)
{
    Schema s;
    EXPECT_EQ(s.refs.slot, 0u);
    EXPECT_EQ(s.depth.slot, 1u);
    EXPECT_EQ(s.lat.slot, 2u);
    EXPECT_EQ(s.wait.slot, 2u + MetricHistBuckets);
    EXPECT_EQ(s.wait.cols, 4u);
    EXPECT_EQ(s.reg.cellCount(), 2u + MetricHistBuckets + 8u);
    ASSERT_EQ(s.reg.series().size(), 4u);
    EXPECT_EQ(s.reg.series()[3].rows, 2u);
}

TEST(Metrics, Log2Buckets)
{
    EXPECT_EQ(metricBucket(0), 0u);
    EXPECT_EQ(metricBucket(1), 1u);
    EXPECT_EQ(metricBucket(2), 2u);
    EXPECT_EQ(metricBucket(3), 2u);
    EXPECT_EQ(metricBucket(4), 3u);
    EXPECT_EQ(metricBucket(1u << 14), 15u);
    EXPECT_EQ(metricBucket(~0ull), MetricHistBuckets - 1);
}

TEST(Metrics, MutatorsAreNoOpsWhileDisabled)
{
    // The runtime enable is off by default.
    Schema s;
    MetricSet m(s.reg);
    m.add(s.refs, 5);
    m.set(s.depth, 9);
    m.sample(s.lat, 100);
    m.cell(s.wait, 1, 3, 7);
    EXPECT_FALSE(m.enabled());
    for (std::uint64_t v : m.values())
        EXPECT_EQ(v, 0u);
}

TEST(Metrics, DisarmedSamplerNeverSnapshots)
{
    Schema s;
    MetricSet m(s.reg);
    MetricsSampler smp(m, 64, 8);
    // Not armed (set disabled): advanceTo is one comparison.
    smp.advanceTo(1u << 20);
    EXPECT_FALSE(smp.armed());
    EXPECT_EQ(smp.snapshots(), 0u);
    EXPECT_TRUE(smp.snapshotWindows().empty());
}

TEST(Metrics, MutatorsAccumulate)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    m.add(s.refs);
    m.add(s.refs, 4);
    m.set(s.depth, 17);
    m.sample(s.lat, 3);
    m.sample(s.lat, 3);
    m.cell(s.wait, 1, 2, 10);
    EXPECT_EQ(m.value(s.refs), 5u);
    EXPECT_EQ(m.value(s.depth), 17u);
    EXPECT_EQ(m.value(s.lat, 0, metricBucket(3)), 2u);
    EXPECT_EQ(m.value(s.wait, 1, 2), 10u);
}

TEST(Metrics, LazySamplingEmitsOneSnapshotPerCrossedBoundary)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 100, 16);
    smp.arm();
    ASSERT_TRUE(smp.armed());

    m.add(s.refs, 3);
    smp.advanceTo(50); // inside window 0: nothing yet
    EXPECT_EQ(smp.snapshots(), 0u);

    smp.advanceTo(100); // first event at the boundary
    ASSERT_EQ(smp.snapshots(), 1u);

    // A long idle gap then one event in window 7: exactly one more
    // snapshot (for window 6, the latest *completed* one) -- idle
    // windows are gaps for carry-forward, not ring entries.
    m.add(s.refs, 2);
    smp.advanceTo(770);
    ASSERT_EQ(smp.snapshots(), 2u);

    smp.finish(779);
    auto ws = smp.snapshotWindows();
    ASSERT_EQ(ws.size(), 3u);
    EXPECT_EQ(ws[0].window, 0u);
    EXPECT_EQ(ws[0].endTick, 100u);
    EXPECT_EQ(ws[0].cells[s.refs.slot], 3u);
    EXPECT_EQ(ws[1].window, 6u);
    EXPECT_EQ(ws[1].endTick, 700u);
    EXPECT_EQ(ws[1].cells[s.refs.slot], 5u);
    EXPECT_EQ(ws[2].window, 7u);
    EXPECT_EQ(ws[2].endTick, 780u);
}

TEST(Metrics, ProbeRefreshesGaugesBeforeEachSnapshot)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 10, 8);
    std::uint64_t level = 0;
    smp.setProbe([&] { m.set(s.depth, ++level); });
    smp.arm();
    smp.advanceTo(10);
    smp.advanceTo(20);
    auto ws = smp.snapshotWindows();
    ASSERT_EQ(ws.size(), 2u);
    EXPECT_EQ(ws[0].cells[s.depth.slot], 1u);
    EXPECT_EQ(ws[1].cells[s.depth.slot], 2u);
}

TEST(Metrics, RingWraparoundKeepsNewestAndAccountsDrops)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 10, 8); // capacity rounds to 8
    smp.setOverflowWarn(false);   // quiet overflow still accounts
    smp.arm();
    EXPECT_EQ(smp.capacity(), 8u);

    for (Tick t = 10; t <= 200; t += 10) {
        m.add(s.refs);
        smp.advanceTo(t);
    }
    EXPECT_EQ(smp.snapshots(), 20u);
    EXPECT_EQ(smp.dropped(), 12u);
    EXPECT_EQ(smp.held(), 8u);

    auto ws = smp.snapshotWindows();
    ASSERT_EQ(ws.size(), 8u);
    // Survivors are the newest 8 windows, oldest-first, cumulative.
    EXPECT_EQ(ws.front().window, 12u);
    EXPECT_EQ(ws.back().window, 19u);
    for (std::size_t i = 0; i + 1 < ws.size(); ++i)
        EXPECT_LT(ws[i].cells[s.refs.slot],
                  ws[i + 1].cells[s.refs.slot]);
}

TEST(Metrics, FinishIsIdempotentPerWindow)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 100, 8);
    smp.arm();
    m.add(s.refs);
    smp.finish(42);
    smp.finish(42);
    auto ws = smp.snapshotWindows();
    ASSERT_EQ(ws.size(), 1u);
    EXPECT_EQ(ws[0].window, 0u);
    EXPECT_EQ(ws[0].endTick, 43u);
}

TEST(Metrics, MergeIsOrderIndependentAndCarriesForward)
{
    // Three "shards" with different snapshot patterns: shard 0
    // snapshots windows 0..3, shard 1 only window 1 (idle after),
    // shard 2 only window 3. The merge must equal the series a
    // single combined set would have produced, whichever order the
    // shards are visited in.
    Schema s;
    MetricSet m0(s.reg), m1(s.reg), m2(s.reg);
    MetricsSampler s0(m0, 10, 16), s1(m1, 10, 16), s2(m2, 10, 16);
    for (MetricSet *m : {&m0, &m1, &m2})
        m->setEnabled(true);
    for (MetricsSampler *sp : {&s0, &s1, &s2})
        sp->arm();

    for (Tick t = 10; t <= 40; t += 10) {
        m0.add(s.refs, 1);
        s0.advanceTo(t);
    }
    m1.add(s.refs, 100);
    s1.advanceTo(20); // snapshot for window 1
    m2.add(s.refs, 1000);
    s2.advanceTo(40); // snapshot for window 3

    auto merged = mergeMetricWindows({&s0, &s1, &s2});
    auto flipped = mergeMetricWindows({&s2, &s1, &s0});
    EXPECT_EQ(merged, flipped);

    ASSERT_EQ(merged.size(), 4u);
    // Window 0: shard 0's first ref only (shard 1/2 contribute 0).
    EXPECT_EQ(merged[0].cells[s.refs.slot], 1u);
    // Window 1: shard 1's 100 joins; shard 2 still 0.
    EXPECT_EQ(merged[1].cells[s.refs.slot], 102u);
    // Window 2: carry-forward of shard 1 (no new snapshot).
    EXPECT_EQ(merged[2].cells[s.refs.slot], 103u);
    // Window 3: everyone.
    EXPECT_EQ(merged[3].cells[s.refs.slot], 1104u);
}

TEST(Metrics, MergeDropsWindowsBehindAnOverflowHorizon)
{
    Schema s;
    MetricSet m0(s.reg), m1(s.reg);
    MetricsSampler s0(m0, 10, 4), s1(m1, 10, 64);
    m0.setEnabled(true);
    m1.setEnabled(true);
    s0.setOverflowWarn(false);
    s0.arm();
    s1.arm();

    // Shard 1 snapshots windows 0..9; shard 0's 4-deep ring only
    // keeps 6..9 of its own. Windows before 6 lost their carry
    // basis for shard 0 and must not appear merged.
    for (Tick t = 10; t <= 100; t += 10) {
        m0.add(s.refs);
        m1.add(s.refs);
        s0.advanceTo(t);
        s1.advanceTo(t);
    }
    EXPECT_GT(s0.dropped(), 0u);
    auto merged = mergeMetricWindows({&s0, &s1});
    ASSERT_FALSE(merged.empty());
    EXPECT_EQ(merged.front().window, 6u);
    EXPECT_EQ(merged.back().window, 9u);
}

TEST(Metrics, EventQueueDrivesAttachedSampler)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 50, 8);
    smp.arm();

    EventQueue eq;
    eq.setMetricsSampler(&smp);
    for (Tick t : {10, 60, 110})
        eq.schedule([&] { m.add(s.refs); }, t);
    eq.run();
    smp.finish(eq.curTick());

    auto ws = smp.snapshotWindows();
    ASSERT_EQ(ws.size(), 3u);
    // Boundary snapshots happen *before* the boundary event runs:
    // window 0 holds only the tick-10 ref.
    EXPECT_EQ(ws[0].endTick, 50u);
    EXPECT_EQ(ws[0].cells[s.refs.slot], 1u);
    EXPECT_EQ(ws[1].endTick, 100u);
    EXPECT_EQ(ws[1].cells[s.refs.slot], 2u);
    EXPECT_EQ(ws[2].cells[s.refs.slot], 3u);
}

TEST(Metrics, JsonLinesExportIsValidPerLineWithDeltas)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 10, 16);
    smp.arm();
    for (Tick t = 10; t <= 30; t += 10) {
        m.add(s.refs, 5);
        m.set(s.depth, t);
        m.sample(s.lat, t);
        m.cell(s.wait, 1, 1, 2);
        smp.advanceTo(t);
    }

    std::ostringstream os;
    exportMetricsJsonLines(os, s.reg, smp.snapshotWindows(),
                           "test", "lbl");
    std::istringstream in(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_TRUE(JsonChecker(line).valid()) << line;
        ++lines;
        // Counters and grids are per-window deltas: every record
        // carries this window's 5 refs, not the running total.
        EXPECT_NE(line.find("\"refs\":5"), std::string::npos)
            << line;
    }
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(os.str().find("\"metrics\":\"test\""),
              std::string::npos);
    EXPECT_NE(os.str().find("\"label\":\"lbl\""),
              std::string::npos);
}

TEST(Metrics, CounterTracksSpliceIntoChromeTrace)
{
    Schema s;
    MetricSet m(s.reg);
    m.setEnabled(true);
    MetricsSampler smp(m, 10, 16);
    smp.arm();
    for (Tick t = 10; t <= 30; t += 10) {
        m.add(s.refs, 4);
        m.cell(s.wait, 0, 1, 3);
        smp.advanceTo(t);
    }

    // A couple of span records around the counter samples.
    std::vector<TraceRecord> recs;
    TraceRecord r{};
    r.tick = 5;
    r.kind = static_cast<std::uint8_t>(TraceEvent::Issue);
    r.seq = 1;
    recs.push_back(r);
    r.tick = 25;
    r.kind = static_cast<std::uint8_t>(TraceEvent::Complete);
    recs.push_back(r);

    std::ostringstream os;
    exportChromeTrace(os, recs,
                      metricsCounterTrackEvents(
                          s.reg, smp.snapshotWindows()));
    const std::string out = os.str();
    EXPECT_TRUE(JsonChecker(out).valid()) << out;
    // One "C" event per window for the counter, the gauge, the
    // histogram's sample count and each grid row, plus the metrics
    // process metadata; all on the shared timeline.
    EXPECT_EQ(countOccurrences(out, "\"ph\":\"C\""), 3u * 5u);
    EXPECT_EQ(countOccurrences(out, "\"name\":\"wait/stage0\""), 3u);
    EXPECT_NE(out.find("\"name\":\"metrics\""), std::string::npos);
    // Events stay time-sorted after the splice.
    std::size_t at = 0;
    Tick last = 0;
    bool sorted = true;
    while ((at = out.find("\"ts\":", at)) != std::string::npos) {
        at += 5;
        const Tick ts = std::strtoull(out.c_str() + at, nullptr, 10);
        if (ts < last)
            sorted = false;
        last = ts;
    }
    EXPECT_TRUE(sorted) << out;
}

TEST(Metrics, SamplerSeriesIsIdenticalAcrossShardCounts)
{
    // The same event stream split across 1, 2, 4 and 8 "shards"
    // (each with its own set + sampler, as PDES does) must merge to
    // the identical window series.
    auto run = [](unsigned shards) {
        Schema s;
        std::vector<std::unique_ptr<MetricSet>> sets;
        std::vector<std::unique_ptr<MetricsSampler>> smps;
        for (unsigned i = 0; i < shards; ++i) {
            sets.push_back(std::make_unique<MetricSet>(s.reg));
            sets.back()->setEnabled(true);
            smps.push_back(std::make_unique<MetricsSampler>(
                *sets.back(), 16, 64));
            smps.back()->arm();
        }
        for (Tick t = 1; t <= 300; ++t) {
            const unsigned owner = t % shards;
            smps[owner]->advanceTo(t);
            sets[owner]->add(
                MetricId{0, 1, 0}, t % 7); // the counter slot
            sets[owner]->cell(MetricId{2u + MetricHistBuckets, 4, 0},
                              t % 2, t % 4);
        }
        for (auto &sp : smps)
            sp->finish(300);
        std::vector<const MetricsSampler *> ptrs;
        for (auto &sp : smps)
            ptrs.push_back(sp.get());
        return mergeMetricWindows(ptrs);
    };

    const auto base = run(1);
    ASSERT_FALSE(base.empty());
    for (unsigned shards : {2u, 4u, 8u})
        EXPECT_EQ(run(shards), base) << shards << " shards";
}
