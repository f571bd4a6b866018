/**
 * @file
 * Tests for the parallel sweep runner: the result vector must be
 * bit-identical for any thread count (the determinism contract the
 * benches rely on), and runPoint must agree with runSweep.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/sweep.hh"
#include "sim/logging.hh"

#include "../sim/json_checker.hh"

using namespace mscp;
using core::EngineKind;

namespace
{

/** A small mixed-engine grid covering every engine kind. */
std::vector<core::SweepPoint>
mixedGrid()
{
    std::vector<core::SweepPoint> points;
    const EngineKind engines[] = {
        EngineKind::NoCache,        EngineKind::WriteOnce,
        EngineKind::FullMap,        EngineKind::Dragon,
        EngineKind::TwoModeForceDW, EngineKind::TwoModeForceGR,
        EngineKind::TwoModeAdaptive, EngineKind::AtomicTwoMode,
        EngineKind::Concurrent,
    };
    const double writeFractions[] = {0.1, 0.5};
    for (EngineKind engine : engines) {
        for (double w : writeFractions) {
            core::SweepPoint pt;
            pt.engine = engine;
            pt.numPorts = 16;
            pt.tasks = 4;
            pt.writeFraction = w;
            pt.numBlocks = 2;
            pt.numRefs = 400;
            pt.seed = 7;
            points.push_back(pt);
        }
    }
    return points;
}

} // anonymous namespace

TEST(Sweep, ParallelMatchesSerialBitIdentical)
{
    auto points = mixedGrid();
    auto serial = core::runSweep(points, 1);
    auto threaded = core::runSweep(points, 4);
    ASSERT_EQ(serial.size(), points.size());
    ASSERT_EQ(threaded.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(serial[i], threaded[i])
            << "point " << i << " ("
            << core::engineKindName(points[i].engine) << ", w="
            << points[i].writeFraction << ") diverged across "
            << "thread counts";
    }
}

TEST(Sweep, RunSweepMatchesRunPoint)
{
    auto points = mixedGrid();
    auto swept = core::runSweep(points, 3);
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(swept[i], core::runPoint(points[i])) << "point " << i;
}

TEST(Sweep, RepeatedRunsAreReproducible)
{
    core::SweepPoint pt;
    pt.engine = EngineKind::Concurrent;
    pt.numPorts = 16;
    pt.tasks = 4;
    pt.numBlocks = 2;
    pt.numRefs = 500;
    pt.seed = 3;
    auto a = core::runPoint(pt);
    auto b = core::runPoint(pt);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.refs, 0u);
    EXPECT_GT(a.networkBits, 0u);
    EXPECT_EQ(a.valueErrors, 0u);
    EXPECT_GT(a.events, 0u);
    EXPECT_GT(a.makespan, 0u);
}

TEST(Sweep, EveryEngineReportsEvents)
{
    // Replay engines count one step per reference; the event-driven
    // engine counts queue events. Either way events must be nonzero
    // so per-event costs stay meaningful for every column.
    auto points = mixedGrid();
    auto results = core::runSweep(points, 2);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_GT(results[i].events, 0u)
            << core::engineKindName(points[i].engine);
        EXPECT_GE(results[i].events, results[i].refs);
    }
}

TEST(Sweep, DifferentSeedsDiverge)
{
    core::SweepPoint pt;
    pt.engine = EngineKind::TwoModeAdaptive;
    pt.numPorts = 16;
    pt.tasks = 4;
    pt.numBlocks = 2;
    pt.numRefs = 500;
    pt.seed = 1;
    auto a = core::runPoint(pt);
    pt.seed = 2;
    auto b = core::runPoint(pt);
    EXPECT_NE(a.networkBits, b.networkBits);
}

TEST(Sweep, EngineKindNamesAreDistinct)
{
    EXPECT_STREQ(core::engineKindName(EngineKind::NoCache),
                 "no-cache");
    EXPECT_STRNE(core::engineKindName(EngineKind::TwoModeForceDW),
                 core::engineKindName(EngineKind::TwoModeForceGR));
}

TEST(Sweep, FailingPointNamesItself)
{
    // A point's fatal error must say which point it came from: 48
    // ports is not a power of two, so the omega topology rejects it.
    std::vector<core::SweepPoint> points(2);
    points[0].numRefs = 200;
    points[1].numRefs = 200;
    points[1].numPorts = 48;
    try {
        core::runSweep(points, 1);
        FAIL() << "runSweep accepted a 48-port point";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("point 1 "), std::string::npos) << what;
        EXPECT_NE(what.find("ports=48"), std::string::npos) << what;
        EXPECT_NE(what.find("fatal: "), std::string::npos) << what;
    }
}

TEST(Sweep, ObservedRunNeverPerturbsResults)
{
    // runPointObserved's contract: attaching the tracer and the
    // windowed metrics sampler is pure observation -- the SweepResult
    // must be bit-identical to a plain runPoint of the same point.
    core::SweepPoint pt;
    pt.engine = EngineKind::Concurrent;
    pt.numPorts = 16;
    pt.tasks = 4;
    pt.writeFraction = 0.4;
    pt.numBlocks = 4;
    pt.numRefs = 800;
    pt.seed = 11;
    pt.metricsWindow = 128;

    const auto plain = core::runPoint(pt);

    std::ostringstream trace, metrics;
    const auto observed =
        core::runPointObserved(pt, &trace, &metrics, "test/observed");
    EXPECT_EQ(observed, plain);

    // The trace stream must hold one valid JSON document.
    EXPECT_FALSE(trace.str().empty());
    EXPECT_TRUE(mscp::test::JsonChecker(trace.str()).valid());

    // The metrics stream is JSON Lines: every line valid on its own,
    // each carrying the label we passed.
    const std::string mtext = metrics.str();
    ASSERT_FALSE(mtext.empty());
    std::istringstream lines(mtext);
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_TRUE(mscp::test::JsonChecker(line).valid()) << line;
        EXPECT_NE(line.find("\"label\":\"test/observed\""),
                  std::string::npos);
    }
    EXPECT_GT(n, 1u);
}
