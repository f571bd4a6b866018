/** @file Tests for the transaction-level timed execution engine. */

#include <gtest/gtest.h>

#include "proto/checker.hh"
#include "timed/timed_system.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"
#include "workload/trace.hh"

using namespace mscp;
using namespace mscp::timed;

namespace
{

core::SystemConfig
baseConfig(unsigned ports = 16)
{
    core::SystemConfig cfg;
    cfg.numPorts = ports;
    cfg.geometry = cache::Geometry{4, 8, 2};
    return cfg;
}

} // anonymous namespace

TEST(TimedSystem, RunsToCompletionAndStaysCoherent)
{
    TimedSystem ts(baseConfig(), TimedConfig{});
    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(4);
    p.writeFraction = 0.3;
    p.numBlocks = 2;
    p.blockWords = 4;
    p.numRefs = 2000;
    workload::SharedBlockWorkload w(p);
    auto res = ts.run(w);
    EXPECT_EQ(res.refs, 2000u);
    EXPECT_EQ(res.valueErrors, 0u);
    EXPECT_GT(res.makespan, 0u);
    EXPECT_GT(res.networkBits, 0u);
    auto errs = proto::checkInvariants(ts.system().protocol());
    EXPECT_TRUE(errs.empty()) << errs.front();
}

TEST(TimedSystem, HitsAreFastMissesAreSlow)
{
    TimedSystem ts(baseConfig(), TimedConfig{});
    // One cpu touches a block (miss), then re-reads it (hits).
    std::vector<workload::MemRef> refs;
    refs.push_back({2, 100, false, 0});
    for (int i = 0; i < 10; ++i)
        refs.push_back({2, 100, false, 0});
    workload::TracePlayer tp(refs);
    auto res = ts.run(tp);
    // 1 miss (several messages) + 10 one-tick hits.
    TimedConfig cfg;
    EXPECT_GT(res.makespan, 10 * cfg.hitLatency);
    EXPECT_LT(res.avgReadLatency, res.makespan);
}

TEST(TimedSystem, MakespanAtLeastCriticalPath)
{
    TimedSystem ts(baseConfig(), TimedConfig{});
    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(8);
    p.writeFraction = 0.4;
    p.numBlocks = 1;
    p.blockWords = 4;
    p.baseAddr = 15 * 4;
    p.numRefs = 3000;
    workload::SharedBlockWorkload w(p);
    auto res = ts.run(w);
    EXPECT_GE(res.makespan, res.zeroLoadCriticalPath);
    EXPECT_GT(res.linkUtilization, 0.0);
    EXPECT_LE(res.linkUtilization, 1.0);
}

TEST(TimedSystem, SingleCpuIsSequential)
{
    // With one cpu the makespan equals the sum of its latencies.
    TimedSystem ts(baseConfig(), TimedConfig{});
    std::vector<workload::MemRef> refs;
    for (Addr a = 0; a < 40; ++a)
        refs.push_back({0, a, a % 3 == 0, a + 1});
    workload::TracePlayer tp(refs);
    auto res = ts.run(tp);
    double total = res.avgReadLatency *
        static_cast<double>(res.refs -
                            (res.refs + 2) / 3) +
        res.avgWriteLatency *
        static_cast<double>((res.refs + 2) / 3);
    EXPECT_NEAR(static_cast<double>(res.makespan), total, 1.0);
}

TEST(TimedSystem, ContentionRaisesLatencyOverZeroLoad)
{
    // Many cpus hammering one remote home must queue on the home's
    // links: makespan strictly above the critical path.
    auto cfg = baseConfig();
    TimedSystem ts(cfg, TimedConfig{});
    workload::HotSpotParams hp;
    hp.placement = workload::adjacentPlacement(8);
    hp.writeFraction = 0.5;
    hp.blockWords = 4;
    hp.baseAddr = 15 * 4;
    hp.numRefs = 2000;
    workload::HotSpotWorkload w(hp);
    auto res = ts.run(w);
    EXPECT_GT(res.makespan, res.zeroLoadCriticalPath);
}

TEST(TimedSystem, WiderLinksRunFaster)
{
    auto run_width = [&](Bits width) {
        TimedConfig tc;
        tc.linkWidthBits = width;
        TimedSystem ts(baseConfig(), tc);
        workload::SharedBlockParams p;
        p.placement = workload::adjacentPlacement(8);
        p.writeFraction = 0.3;
        p.numBlocks = 1;
        p.blockWords = 4;
        p.baseAddr = 15 * 4;
        p.numRefs = 2000;
        workload::SharedBlockWorkload w(p);
        return ts.run(w).makespan;
    };
    EXPECT_LT(run_width(64), run_width(8));
}

TEST(TimedSystem, DistributedWriteCutsReadLatencyAtLowW)
{
    // Read-mostly sharing: in DW mode remote reads become local
    // hits, so average read latency collapses vs GR.
    auto run_policy = [&](core::PolicyKind k) {
        auto cfg = baseConfig();
        cfg.policy = k;
        TimedSystem ts(cfg, TimedConfig{});
        workload::SharedBlockParams p;
        p.placement = workload::adjacentPlacement(8);
        p.writeFraction = 0.05;
        p.numBlocks = 1;
        p.blockWords = 4;
        p.baseAddr = 15 * 4;
        p.numRefs = 4000;
        workload::SharedBlockWorkload w(p);
        auto res = ts.run(w);
        EXPECT_EQ(res.valueErrors, 0u);
        return res.avgReadLatency;
    };
    EXPECT_LT(run_policy(core::PolicyKind::ForceDW),
              run_policy(core::PolicyKind::ForceGR) / 2);
}

TEST(TimedSystem, RunResultRecordsLatencyHistograms)
{
    TimedSystem ts(baseConfig(), TimedConfig{});
    workload::UniformRandomParams up;
    up.numCpus = 16;
    up.addrRange = 200;
    up.numRefs = 1000;
    workload::UniformRandomWorkload w(up);
    auto res = ts.run(w);

    EXPECT_EQ(res.refs, 1000u);
    EXPECT_EQ(res.readLatency.count() + res.writeLatency.count(),
              res.refs);
    EXPECT_EQ(res.localRefs + res.remoteRefs, res.refs);
    EXPECT_GT(res.remoteRefs, 0u);
    EXPECT_GT(res.readLatency.count(), 0u);
    EXPECT_GT(res.writeLatency.count(), 0u);
    EXPECT_GE(static_cast<double>(res.readLatency.max()),
              res.avgReadLatency);
    EXPECT_GE(static_cast<double>(res.writeLatency.max()),
              res.avgWriteLatency);
}

TEST(TimedSystem, EachRunReportsOnlyItsOwnReferences)
{
    TimedSystem ts(baseConfig(), TimedConfig{});
    workload::UniformRandomParams up;
    up.numCpus = 16;
    up.addrRange = 200;
    up.numRefs = 1000;
    workload::UniformRandomWorkload first(up);
    auto a = ts.run(first);

    up.numRefs = 300;
    up.seed = up.seed + 1;
    workload::UniformRandomWorkload second(up);
    auto b = ts.run(second);

    EXPECT_EQ(a.readLatency.count() + a.writeLatency.count(), 1000u);
    EXPECT_EQ(b.refs, 300u);
    EXPECT_EQ(b.readLatency.count() + b.writeLatency.count(), 300u);
    EXPECT_EQ(b.localRefs + b.remoteRefs, 300u);
}

TEST(TimedSystem, DeterministicAcrossRuns)
{
    auto once = [&] {
        TimedSystem ts(baseConfig(), TimedConfig{});
        workload::SharedBlockParams p;
        p.placement = workload::adjacentPlacement(4);
        p.writeFraction = 0.5;
        p.numBlocks = 2;
        p.blockWords = 4;
        p.numRefs = 1500;
        workload::SharedBlockWorkload w(p);
        return ts.run(w).makespan;
    };
    EXPECT_EQ(once(), once());
}

TEST(TimedSystem, RejectsZeroLinkWidth)
{
    TimedConfig tc;
    tc.linkWidthBits = 0;
    EXPECT_THROW(TimedSystem(baseConfig(), tc), FatalError);
}
