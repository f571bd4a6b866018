/** @file Tests for the plain-text statistics dump. */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

using namespace mscp;
using namespace mscp::core;

namespace
{

SystemConfig
cfg16()
{
    SystemConfig cfg;
    cfg.numPorts = 16;
    cfg.geometry = cache::Geometry{4, 8, 2};
    return cfg;
}

/** dumpStats output as name -> value. */
std::map<std::string, double>
parseDump(const System &sys)
{
    std::ostringstream os;
    dumpStats(os, sys);
    std::istringstream in(os.str());
    std::map<std::string, double> values;
    std::string name;
    double value;
    std::string rest;
    while (in >> name >> value) {
        values[name] = value;
        std::getline(in, rest);
    }
    return values;
}

} // anonymous namespace

TEST(DumpStats, LiveValuesTrackTheSystem)
{
    System sys(cfg16());

    std::ostringstream before;
    dumpStats(before, sys);

    workload::SharedBlockParams p;
    p.placement = workload::adjacentPlacement(4);
    p.writeFraction = 0.3;
    p.numBlocks = 1;
    p.blockWords = 4;
    p.baseAddr = 15 * 4;
    p.numRefs = 1000;
    workload::SharedBlockWorkload w(p);
    sys.run(w);

    std::ostringstream after;
    dumpStats(after, sys);
    EXPECT_NE(before.str(), after.str());

    auto s = after.str();
    EXPECT_NE(s.find("system.protocol.reads"), std::string::npos);
    EXPECT_NE(s.find("system.protocol.read_hit_ratio"),
              std::string::npos);
    EXPECT_NE(s.find("system.network.total_bits"),
              std::string::npos);
    EXPECT_NE(s.find("system.network.level0_bits"),
              std::string::npos);

    const auto &c = sys.protocol().counters();
    auto v = parseDump(sys);
    EXPECT_EQ(v["system.protocol.reads"], static_cast<double>(c.reads));
    EXPECT_EQ(v["system.protocol.writes"],
              static_cast<double>(c.writes));
}

TEST(DumpStats, DerivedValuesMatchRawCounters)
{
    System sys(cfg16());

    auto &p = sys.protocol();
    p.write(0, 100, 1);
    p.read(1, 100); // GR remote read: miss
    p.read(0, 100); // owner read: hit
    p.read(0, 100); // owner read: hit
    p.read(1, 100); // pointer read: still a miss in GR mode

    const auto &c = p.counters();
    EXPECT_EQ(c.reads, 4u);
    EXPECT_EQ(c.writes, 1u);
    EXPECT_EQ(c.readHits, 2u);
    auto v = parseDump(sys);
    EXPECT_EQ(v["system.protocol.read_hit_ratio"], 0.5);
    EXPECT_DOUBLE_EQ(
        v["system.network.bits_per_ref"],
        static_cast<double>(sys.network().linkStats().totalBits()) /
            5.0);
}

TEST(DumpStats, LevelBitsSumToTotal)
{
    System sys(cfg16());
    auto &p = sys.protocol();
    for (Addr a = 0; a < 64; ++a)
        p.write(static_cast<NodeId>(a % 16), a, a);

    const auto &ls = sys.network().linkStats();
    Bits sum = 0;
    for (unsigned lvl = 0; lvl < ls.numLevels(); ++lvl)
        sum += ls.levelBits(lvl);
    EXPECT_EQ(sum, ls.totalBits());

    // The dump shows one L_i line per stage, summing to CC.
    auto v = parseDump(sys);
    double dumped = 0;
    for (unsigned lvl = 0; lvl < ls.numLevels(); ++lvl) {
        auto it = v.find("system.network.level" + std::to_string(lvl) +
                         "_bits");
        ASSERT_NE(it, v.end());
        dumped += it->second;
    }
    EXPECT_EQ(v.count("system.network.level" +
                      std::to_string(ls.numLevels()) + "_bits"),
              0u);
    EXPECT_EQ(dumped, v["system.network.total_bits"]);
    EXPECT_EQ(v["system.network.total_bits"],
              static_cast<double>(ls.totalBits()));
}

TEST(MessageTable, ListsOnlyUsedTypes)
{
    System sys(cfg16());
    auto &p = sys.protocol();
    p.write(0, 100, 1);
    p.read(1, 100);

    std::ostringstream os;
    dumpMessageTable(os, p.messageCounters());
    auto s = os.str();
    EXPECT_NE(s.find("LoadReq"), std::string::npos);
    EXPECT_NE(s.find("total"), std::string::npos);
    // No distributed-write updates happened.
    EXPECT_EQ(s.find("DwUpdate"), std::string::npos);
}

TEST(MessageTable, TotalsAreConsistent)
{
    System sys(cfg16());
    auto &p = sys.protocol();
    for (Addr a = 0; a < 32; ++a) {
        p.write(static_cast<NodeId>(a % 16), a, a);
        p.read(static_cast<NodeId>((a + 1) % 16), a);
    }
    const auto &mc = p.messageCounters();
    std::uint64_t count = 0;
    Bits bits = 0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(proto::MsgType::NumTypes);
         ++i) {
        count += mc.count[i];
        bits += mc.bits[i];
    }
    EXPECT_EQ(count, mc.totalCount());
    EXPECT_EQ(bits, mc.totalBits());
}
