/**
 * @file
 * Random coherence tester (ruby-random-tester style): drive random
 * reference streams through the engine under many configurations,
 * checking golden values on every read and the full invariant set
 * periodically.
 */

#include <gtest/gtest.h>

#include "net/omega_network.hh"
#include "proto/checker.hh"
#include "proto/stenstrom.hh"
#include "workload/patterns.hh"

using namespace mscp;
using namespace mscp::proto;

namespace
{

struct Cfg
{
    unsigned ports;
    unsigned blockWords;
    unsigned sets;
    unsigned assoc;
    net::Scheme scheme;
    cache::Mode defaultMode;
    double writeFraction;
    std::uint64_t seed;
};

std::string
cfgName(const ::testing::TestParamInfo<Cfg> &info)
{
    const Cfg &c = info.param;
    return "N" + std::to_string(c.ports) + "_b" +
        std::to_string(c.blockWords) + "_s" +
        std::to_string(c.sets) + "x" + std::to_string(c.assoc) +
        "_sch" + std::to_string(static_cast<int>(c.scheme)) +
        (c.defaultMode == cache::Mode::GlobalRead ? "_gr" : "_dw") +
        "_w" + std::to_string(static_cast<int>(
            c.writeFraction * 100)) +
        "_seed" + std::to_string(c.seed);
}

/**
 * The configurations, at namespace scope: static storage zero-fills
 * Cfg's padding, and gtest's listing (the ctest names) prints a
 * parameter's raw bytes, so the names stay the same in every build.
 */
const Cfg configs[] = {
    Cfg{4, 4, 2, 1, net::Scheme::Unicasts,
        cache::Mode::GlobalRead, 0.3, 1},
    Cfg{4, 4, 2, 1, net::Scheme::Unicasts,
        cache::Mode::DistributedWrite, 0.3, 2},
    Cfg{8, 4, 2, 2, net::Scheme::VectorRouting,
        cache::Mode::GlobalRead, 0.5, 3},
    Cfg{8, 4, 2, 2, net::Scheme::VectorRouting,
        cache::Mode::DistributedWrite, 0.5, 4},
    Cfg{8, 8, 4, 1, net::Scheme::BroadcastTag,
        cache::Mode::DistributedWrite, 0.2, 5},
    Cfg{16, 4, 2, 2, net::Scheme::Combined,
        cache::Mode::GlobalRead, 0.4, 6},
    Cfg{16, 4, 2, 2, net::Scheme::Combined,
        cache::Mode::DistributedWrite, 0.4, 7},
    Cfg{32, 8, 4, 2, net::Scheme::Combined,
        cache::Mode::GlobalRead, 0.1, 8},
    Cfg{32, 8, 4, 2, net::Scheme::Combined,
        cache::Mode::DistributedWrite, 0.9, 9},
    Cfg{64, 4, 2, 1, net::Scheme::Combined,
        cache::Mode::DistributedWrite, 0.5, 10},
};

} // anonymous namespace

class RandomTester : public ::testing::TestWithParam<Cfg>
{
};

TEST_P(RandomTester, ValuesAndInvariantsHold)
{
    const Cfg &c = GetParam();
    net::OmegaNetwork net(c.ports);
    StenstromParams p;
    p.geometry = cache::Geometry{c.blockWords, c.sets, c.assoc};
    p.multicastScheme = c.scheme;
    p.defaultMode = c.defaultMode;
    StenstromProtocol proto(net, p);

    workload::UniformRandomParams wp;
    wp.numCpus = c.ports;
    // Cover more blocks than a cache holds to force replacements.
    wp.addrRange = static_cast<Addr>(c.blockWords) * c.sets *
        c.assoc * 3;
    wp.writeFraction = c.writeFraction;
    wp.numRefs = 6000;
    wp.seed = c.seed;
    workload::UniformRandomWorkload stream(wp);

    workload::MemRef ref;
    std::uint64_t step = 0;
    while (stream.next(ref)) {
        if (ref.isWrite)
            proto.write(ref.cpu, ref.addr, ref.value);
        else
            proto.read(ref.cpu, ref.addr);
        if (++step % 500 == 0) {
            auto errs = checkInvariants(proto);
            ASSERT_TRUE(errs.empty())
                << "step " << step << ": " << errs.front();
        }
    }
    EXPECT_EQ(proto.valueErrors(), 0u);
    auto errs = checkInvariants(proto);
    EXPECT_TRUE(errs.empty()) << errs.front();
    // Sanity: the run actually exercised the machinery.
    EXPECT_GT(proto.counters().replacements, 0u);
    EXPECT_GT(proto.counters().ownershipTransfers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, RandomTester,
                         ::testing::ValuesIn(configs), cfgName);

TEST(RandomTesterModes, RandomModeFlipsStayCoherent)
{
    // Interleave random setMode calls with random references.
    net::OmegaNetwork net(8);
    StenstromParams p;
    p.geometry = cache::Geometry{4, 2, 2};
    StenstromProtocol proto(net, p);
    Random rng(42);

    Addr range = 4 * 2 * 2 * 3;
    for (int step = 0; step < 5000; ++step) {
        auto cpu = static_cast<NodeId>(rng.uniform(0, 7));
        Addr addr = rng.uniform(0, range - 1);
        switch (rng.uniform(0, 9)) {
          case 0:
            proto.setMode(cpu, addr, cache::Mode::DistributedWrite);
            break;
          case 1:
            proto.setMode(cpu, addr, cache::Mode::GlobalRead);
            break;
          case 2:
          case 3:
          case 4:
            proto.write(cpu, addr, rng.uniform(1, 1u << 30));
            break;
          default:
            proto.read(cpu, addr);
        }
        if (step % 250 == 0) {
            auto errs = checkInvariants(proto);
            ASSERT_TRUE(errs.empty())
                << "step " << step << ": " << errs.front();
        }
    }
    EXPECT_EQ(proto.valueErrors(), 0u);
    EXPECT_GT(proto.counters().modeSwitches, 0u);
}

TEST(RandomTesterNack, RandomNacksStayCoherent)
{
    // Random hand-off nacks exercise retry and fallback paths.
    net::OmegaNetwork net(8);
    StenstromParams p;
    p.geometry = cache::Geometry{4, 1, 1};
    p.defaultMode = cache::Mode::DistributedWrite;
    StenstromProtocol proto(net, p);
    Random nack_rng(7);
    proto.setNackInjector([&](NodeId, BlockId) {
        return nack_rng.bernoulli(0.5);
    });

    workload::UniformRandomParams wp;
    wp.numCpus = 8;
    wp.addrRange = 4 * 6;
    wp.writeFraction = 0.4;
    wp.numRefs = 4000;
    wp.seed = 77;
    workload::UniformRandomWorkload stream(wp);
    workload::MemRef ref;
    int step = 0;
    while (stream.next(ref)) {
        if (ref.isWrite)
            proto.write(ref.cpu, ref.addr, ref.value);
        else
            proto.read(ref.cpu, ref.addr);
        if (++step % 500 == 0) {
            auto errs = checkInvariants(proto);
            ASSERT_TRUE(errs.empty())
                << "step " << step << ": " << errs.front();
        }
    }
    EXPECT_EQ(proto.valueErrors(), 0u);
    EXPECT_GT(proto.counters().handoffNacks, 0u);
}
