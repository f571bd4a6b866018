/**
 * @file
 * Model-checker tests over the healthy engine: the acceptance
 * configs must exhaust (or stay within budget) with zero
 * violations, exploration must be deterministic, symmetry
 * reduction must shrink the state count without changing the
 * verdict, and replay must reproduce states exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "verify/canon.hh"
#include "verify/explorer.hh"
#include "verify/liveness.hh"
#include "verify/refine.hh"
#include "verify/state.hh"

using namespace mscp;
using verify::Action;
using verify::ActionKind;
using verify::EngineGateway;
using verify::Explorer;
using verify::ExploreResult;
using verify::VerifyConfig;

namespace
{

/** 2-node, 1-block, 2-ops-per-cpu acceptance config. */
VerifyConfig
smallConfig(cache::Mode mode)
{
    VerifyConfig cfg;
    cfg.name = mode == cache::Mode::DistributedWrite ? "A-dw"
                                                     : "A-gr";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = mode;
    cfg.program = {
        {{0, 0, true, 1}, {0, 0, true, 2}},
        {{1, 0, false, 0}, {1, 0, false, 0}},
    };
    return cfg;
}

} // anonymous namespace

TEST(Verify, ExhaustiveCleanDistributedWrite)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    Explorer ex(cfg);
    ExploreResult res = ex.explore();
    if (!res.violations.empty()) {
        ADD_FAILURE() << Explorer::renderViolation(
            cfg, res.violations[0], res.violations[0]);
    }
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.states, 10u);
    EXPECT_GT(res.settledStates, 0u);
}

TEST(Verify, ExhaustiveCleanGlobalRead)
{
    Explorer ex(smallConfig(cache::Mode::GlobalRead));
    ExploreResult res = ex.explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.states, 10u);
    EXPECT_GT(res.settledStates, 0u);
}

TEST(Verify, ExplorationIsDeterministic)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    ExploreResult a = Explorer(cfg).explore();
    ExploreResult b = Explorer(cfg).explore();
    EXPECT_EQ(a.states, b.states);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.prunedSeen, b.prunedSeen);
    EXPECT_EQ(a.settledStates, b.settledStates);
    EXPECT_EQ(a.maxDepthReached, b.maxDepthReached);
}

TEST(Verify, SymmetryShrinksWithoutChangingVerdict)
{
    VerifyConfig sym = smallConfig(cache::Mode::DistributedWrite);
    VerifyConfig nosym = sym;
    nosym.opt.symmetry = false;

    EXPECT_TRUE(EngineGateway(sym).symmetryEligible());

    ExploreResult rs = Explorer(sym).explore();
    ExploreResult rn = Explorer(nosym).explore();
    EXPECT_TRUE(rs.violations.empty());
    EXPECT_TRUE(rn.violations.empty());
    EXPECT_TRUE(rs.complete);
    EXPECT_TRUE(rn.complete);
    // The programs are asymmetric, so the reduction cannot merge
    // everything, but it must never grow the state space.
    EXPECT_LE(rs.states, rn.states);
}

TEST(Verify, EvictionConfigDisablesSymmetry)
{
    // Two blocks contending for a single direct-mapped set force
    // evictions; candidate-list formation is not permutation
    // -equivariant, so the gateway must refuse the reduction.
    VerifyConfig cfg;
    cfg.name = "evict";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 1}, {0, 1, true, 2}, {0, 0, false, 0}},
        {{1, 1, false, 0}},
    };
    EngineGateway gw(cfg);
    EXPECT_FALSE(gw.symmetryEligible());

    ExploreResult res = Explorer(cfg).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
}

TEST(Verify, TimeoutRetryConfigStaysClean)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    cfg.name = "timeout";
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}},
    };
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    ExploreResult res = Explorer(cfg).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_FALSE(res.budgetExhausted);
}

TEST(Verify, CrashConfigStaysClean)
{
    // One budgeted crash with the timeout/suspicion machinery on.
    // The suspect-retry loop makes the full space unbounded, so
    // this explores under depth and state budgets.
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    cfg.name = "crash";
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, false, 0}},
    };
    cfg.opt.crashBudget = 1;
    cfg.opt.allowRejoin = false;
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    cfg.opt.maxDepth = 40;
    cfg.opt.maxStates = 30000;
    ExploreResult res = Explorer(cfg).explore();
    if (!res.violations.empty()) {
        ADD_FAILURE() << Explorer::renderViolation(
            cfg, res.violations[0], res.violations[0]);
    }
}

namespace
{

/** The sweep's 3-active-cpu acceptance config: two writers on
 *  different blocks, a cross-reader between them, one set so the
 *  blocks contend for the same frame. Previously budget-capped at
 *  20000 states; POR exhausts it. */
VerifyConfig
threeCpuConfig()
{
    VerifyConfig cfg;
    cfg.name = "B-3cpu";
    cfg.nodes = 4; // omega network needs a power of two; cpu3 idle
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 7}, {0, 0, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0},
         {1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 1, true, 9}, {2, 1, true, 10}},
    };
    cfg.opt.maxStates = 1u << 20;
    return cfg;
}

} // anonymous namespace

TEST(Verify, PorExhaustsThreeCpuConfig)
{
    // The headline POR win: this config overran its former 20000
    // -state budget unreduced (the sweep audits full-vs-reduced and
    // records >= 5x in tests/verify/sweep_baseline.json); reduced,
    // it exhausts well under that budget.
    VerifyConfig cfg = threeCpuConfig();
    cfg.opt.por = true;
    ExploreResult res = Explorer(cfg).explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.states, 1000u);
    EXPECT_LT(res.states, 20000u);
}

TEST(Verify, PorAuditMatchesFullExploration)
{
    // The self-check the sweep's --por-audit mode runs on every
    // config: the reduced exploration must reach the same verdict
    // and the same settled-state invariant coverage as the full
    // one. A lighter two-set 3-cpu variant keeps the full leg fast.
    std::vector<VerifyConfig> cfgs;
    cfgs.push_back(smallConfig(cache::Mode::DistributedWrite));
    cfgs.push_back(smallConfig(cache::Mode::GlobalRead));
    VerifyConfig b = threeCpuConfig();
    b.name = "B-3cpu-2set";
    b.geometry = cache::Geometry{1, 1, 2};
    cfgs.push_back(b);

    for (const VerifyConfig &base : cfgs) {
        VerifyConfig full = base;
        full.opt.por = false;
        VerifyConfig red = base;
        red.opt.por = true;
        ExploreResult rf = Explorer(full).explore();
        ExploreResult rr = Explorer(red).explore();
        EXPECT_EQ(rf.complete, rr.complete) << base.name;
        EXPECT_EQ(rf.violations.empty(), rr.violations.empty())
            << base.name;
        EXPECT_EQ(rf.settledUnique, rr.settledUnique) << base.name;
        EXPECT_EQ(rf.settledDigest, rr.settledDigest) << base.name;
        EXPECT_LE(rr.states, rf.states) << base.name;
    }
}

TEST(Verify, LivenessCleanOnHealthyConfigs)
{
    // "Every issued operation eventually completes" under weak
    // fairness: the healthy engine must have no fair accepting
    // cycle on any exhaustible config.
    std::vector<VerifyConfig> cfgs;
    cfgs.push_back(smallConfig(cache::Mode::DistributedWrite));
    cfgs.push_back(smallConfig(cache::Mode::GlobalRead));
    VerifyConfig t = smallConfig(cache::Mode::DistributedWrite);
    t.name = "timeout";
    t.program = {{{0, 0, true, 1}}, {{1, 0, false, 0}}};
    t.opt.timeoutBase = 1;
    t.opt.maxRetries = 1;
    cfgs.push_back(t);

    for (const VerifyConfig &cfg : cfgs) {
        ExploreResult res = verify::checkLiveness(cfg);
        EXPECT_TRUE(res.complete) << cfg.name;
        if (!res.violations.empty()) {
            ADD_FAILURE() << cfg.name << ":\n"
                          << Explorer::renderViolation(
                                 cfg, res.violations[0],
                                 res.violations[0]);
        }
    }
}

TEST(Verify, RefinementHoldsOnAcceptanceConfigs)
{
    // Trace inclusion in the atomic-register spec == the engine's
    // observable reads/writes are linearizable, in both modes.
    for (cache::Mode mode : {cache::Mode::DistributedWrite,
                             cache::Mode::GlobalRead}) {
        VerifyConfig cfg = smallConfig(mode);
        ExploreResult res = verify::checkRefinement(cfg);
        EXPECT_TRUE(res.complete) << cfg.name;
        EXPECT_TRUE(res.violations.empty()) << cfg.name;
    }
}

TEST(Verify, RefinementHoldsWithTwoWriters)
{
    // Two writers racing on one block: the single-value completion
    // monitor cannot judge these runs (completion order differs
    // from linearization order), but the refinement checker can --
    // and the engine must pass it.
    VerifyConfig cfg;
    cfg.name = "W2-dw";
    cfg.nodes = 2;
    cfg.geometry = cache::Geometry{1, 1, 1};
    cfg.mode = cache::Mode::DistributedWrite;
    cfg.program = {
        {{0, 0, true, 1}},
        {{1, 0, true, 2}, {1, 0, false, 0}},
    };
    ExploreResult dw = verify::checkRefinement(cfg);
    EXPECT_TRUE(dw.complete);
    EXPECT_TRUE(dw.violations.empty());

    cfg.name = "W2-gr";
    cfg.mode = cache::Mode::GlobalRead;
    ExploreResult gr = verify::checkRefinement(cfg);
    EXPECT_TRUE(gr.complete);
    EXPECT_TRUE(gr.violations.empty());
}

TEST(Verify, CrashConfigExhaustsWithResendDedup)
{
    // The sweep's E-crash row: folding exact-duplicate resends
    // bounds the retry storm, so one budgeted crash explores to
    // closure (previously capped at depth 40 / 30000 states).
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    cfg.name = "E-crash";
    cfg.program = {{{0, 0, true, 1}}, {{1, 0, false, 0}}};
    cfg.opt.crashBudget = 1;
    cfg.opt.allowRejoin = false;
    cfg.opt.timeoutBase = 1;
    cfg.opt.maxRetries = 1;
    cfg.opt.dedupResends = true;
    cfg.opt.por = true;
    ExploreResult res = Explorer(cfg).explore();
    if (!res.violations.empty()) {
        ADD_FAILURE() << Explorer::renderViolation(
            cfg, res.violations[0], res.violations[0]);
    }
    EXPECT_TRUE(res.complete);
    EXPECT_FALSE(res.budgetExhausted);
}

TEST(Verify, ReplayReproducesCanonicalState)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    EngineGateway gw(cfg);

    // Drive a fixed deterministic prefix: always the first enabled
    // action.
    std::vector<Action> taken;
    for (int i = 0; i < 6; ++i) {
        auto acts = gw.enabledActions();
        if (acts.empty())
            break;
        gw.apply(acts[0]);
        taken.push_back(acts[0]);
    }
    auto bytes = gw.canonical();

    EngineGateway replay(cfg);
    for (const Action &a : taken)
        ASSERT_TRUE(replay.applyIfEnabled(a));
    EXPECT_EQ(bytes, replay.canonical());
}

TEST(Verify, ActionEnumerationIsStable)
{
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    EngineGateway gw(cfg);
    auto a = gw.enabledActions();
    auto b = gw.enabledActions();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_EQ(a[i].fp, b[i].fp);
    }
    // Initially only the two Issue actions are enabled.
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].kind, ActionKind::Issue);
    EXPECT_EQ(a[1].kind, ActionKind::Issue);
}

namespace
{

/** Apply the enabled action of @p kind at @p node. */
void
applyAt(EngineGateway &gw, ActionKind kind, NodeId node)
{
    for (const Action &a : gw.enabledActions()) {
        if (a.kind == kind && a.node == node) {
            gw.apply(a);
            return;
        }
    }
    ADD_FAILURE() << verify::actionKindName(kind) << " cpu" << node
                  << " not enabled";
}

} // anonymous namespace

TEST(Verify, CanonicalDropsAbsoluteTime)
{
    // One protocol state reached at different ticks: the two
    // independent issues commute, but each cpu's reference starts
    // one tick earlier on one path than on the other (issue ticks,
    // request send times). The canonical bytes must not see it.
    VerifyConfig cfg = smallConfig(cache::Mode::DistributedWrite);
    EngineGateway x(cfg), y(cfg);
    applyAt(x, ActionKind::Issue, 0);
    applyAt(x, ActionKind::Issue, 1);
    applyAt(y, ActionKind::Issue, 1);
    applyAt(y, ActionKind::Issue, 0);
    EXPECT_NE(x.canonical(), EngineGateway(cfg).canonical());
    EXPECT_EQ(x.canonical(), y.canonical());
}

namespace
{

/** The verify_sweep matrix (bench/verify_sweep.cc), in its order. */
std::vector<VerifyConfig>
sweepConfigs()
{
    std::vector<VerifyConfig> cfgs;
    cfgs.push_back(smallConfig(cache::Mode::DistributedWrite));
    cfgs.push_back(smallConfig(cache::Mode::GlobalRead));
    cfgs.push_back(threeCpuConfig());

    VerifyConfig bg = threeCpuConfig();
    bg.name = "B-gr2blk";
    bg.mode = cache::Mode::GlobalRead;
    bg.program = {
        {{0, 0, true, 7}, {0, 1, true, 8}},
        {{1, 0, false, 0}, {1, 1, false, 0}},
        {{2, 0, false, 0}, {2, 1, false, 0}},
    };
    cfgs.push_back(bg);

    VerifyConfig c = smallConfig(cache::Mode::DistributedWrite);
    c.name = "C-evict";
    c.program = {
        {{0, 0, true, 1}, {0, 1, true, 2}, {0, 0, false, 0}},
        {{1, 1, false, 0}},
    };
    cfgs.push_back(c);

    VerifyConfig d = smallConfig(cache::Mode::DistributedWrite);
    d.name = "D-timeout";
    d.program = {{{0, 0, true, 1}}, {{1, 0, false, 0}}};
    d.opt.timeoutBase = 1;
    d.opt.maxRetries = 1;
    cfgs.push_back(d);

    VerifyConfig e = d;
    e.name = "E-crash";
    e.opt.crashBudget = 1;
    e.opt.allowRejoin = false;
    e.opt.dedupResends = true;
    cfgs.push_back(e);
    return cfgs;
}

/**
 * Everything two gateways expose about their state must agree: the
 * canonical bytes, the enabled actions, the pending read samples,
 * and -- through a snapshot of each -- the tick, the statistics and
 * the generators the canonical form leaves out.
 */
void
expectSameState(const EngineGateway &x, const EngineGateway &y,
                const std::string &where)
{
    EXPECT_EQ(x.canonical(), y.canonical()) << where;
    EXPECT_EQ(x.pendingSamples(), y.pendingSamples()) << where;
    std::vector<Action> ax = x.enabledActions();
    std::vector<Action> ay = y.enabledActions();
    EXPECT_EQ(ax.size(), ay.size()) << where;
    for (std::size_t i = 0; i < std::min(ax.size(), ay.size()); ++i) {
        EXPECT_EQ(ax[i].kind, ay[i].kind) << where;
        EXPECT_EQ(ax[i].node, ay[i].node) << where;
        EXPECT_EQ(ax[i].fp, ay[i].fp) << where;
    }

    EngineGateway::Snapshot sx, sy;
    x.save(sx);
    y.save(sy);
    EXPECT_EQ(sx.tick, sy.tick) << where;
    EXPECT_EQ(sx.msgs.count, sy.msgs.count) << where;
    EXPECT_EQ(sx.msgs.bits, sy.msgs.bits) << where;
    EXPECT_EQ(sx.readLatSum, sy.readLatSum) << where;
    EXPECT_EQ(sx.writeLatSum, sy.writeLatSum) << where;
    EXPECT_EQ(sx.readsDone, sy.readsDone) << where;
    EXPECT_EQ(sx.writesDone, sy.writesDone) << where;
    EXPECT_EQ(sx.refsOutstanding, sy.refsOutstanding) << where;
    EXPECT_EQ(sx._valueErrors, sy._valueErrors) << where;
    EXPECT_EQ(sx.ctrs.crashes, sy.ctrs.crashes) << where;
    for (std::size_t c = 0; c < sx.cpus.size(); ++c) {
        EXPECT_EQ(sx.cpus[c].seqGen, sy.cpus[c].seqGen) << where;
        EXPECT_EQ(sx.cpus[c].opGen, sy.cpus[c].opGen) << where;
        EXPECT_EQ(sx.cpus[c].issueTick, sy.cpus[c].issueTick)
            << where;
    }
    for (std::size_t h = 0; h < sx.homes.size(); ++h)
        EXPECT_EQ(sx.homes[h].busyTokenGen, sy.homes[h].busyTokenGen)
            << where;
}

/** A uniformly chosen element of @p acts (non-empty). */
const Action &
pick(Random &rng, const std::vector<Action> &acts)
{
    return acts[rng.uniform(0, acts.size() - 1)];
}

} // anonymous namespace

TEST(Verify, SnapshotRestoreMatchesReplay)
{
    // Backtracking restores snapshots instead of replaying the
    // action prefix. On every sweep config: random walks save one
    // snapshot per depth; restoring a depth (from whatever state
    // the gateway is in) must give exactly the state a fresh
    // gateway reaches by replaying the prefix. The same few actions
    // are then applied to both and compared after each, which
    // exposes generator state (attempt sequence numbers, busy
    // tokens, LRU clocks) that the canonical form hides.
    constexpr unsigned walks = 3, maxLen = 40, probes = 8,
                       follow = 4;
    for (const VerifyConfig &cfg : sweepConfigs()) {
        Random rng(0x5eed);
        for (unsigned w = 0; w < walks; ++w) {
            EngineGateway gw(cfg);
            std::vector<EngineGateway::Snapshot> snaps(1);
            std::vector<Action> path;
            gw.save(snaps[0]);
            while (path.size() < maxLen) {
                std::vector<Action> acts = gw.enabledActions();
                if (acts.empty())
                    break;
                path.push_back(pick(rng, acts));
                gw.apply(path.back());
                snaps.emplace_back();
                gw.save(snaps.back());
            }
            ASSERT_GT(path.size(), 3u) << cfg.name;

            for (unsigned p = 0; p < probes; ++p) {
                const std::size_t d = rng.uniform(0, path.size());
                const std::string where =
                    cfg.name + " walk " + std::to_string(w) +
                    " depth " + std::to_string(d);
                gw.restore(snaps[d]);
                EngineGateway fresh(cfg);
                for (std::size_t i = 0; i < d; ++i)
                    fresh.apply(path[i]);
                expectSameState(gw, fresh, where);

                for (unsigned k = 0; k < follow; ++k) {
                    std::vector<Action> acts = gw.enabledActions();
                    if (acts.empty())
                        break;
                    const Action a = pick(rng, acts);
                    gw.apply(a);
                    fresh.apply(a);
                    expectSameState(gw, fresh,
                                    where + " +" +
                                        std::to_string(k + 1));
                }
            }
            gw.reset();
            expectSameState(gw, EngineGateway(cfg),
                            cfg.name + " reset");
        }
    }
}

namespace
{

/** One exploration's traversal counters, as the parent of the
 *  snapshot change produced them. */
struct Pin
{
    const char *name;
    std::uint64_t states, edges, prunedSeen, settledStates,
        settledUnique;
    unsigned maxDepth;
    std::uint64_t digest;
};

void
expectPinned(const ExploreResult &r, const Pin &p, const char *leg)
{
    const std::string where = std::string(p.name) + " " + leg;
    EXPECT_EQ(r.states, p.states) << where;
    EXPECT_EQ(r.edges, p.edges) << where;
    EXPECT_EQ(r.prunedSeen, p.prunedSeen) << where;
    EXPECT_EQ(r.prunedDepth, 0u) << where;
    EXPECT_EQ(r.settledStates, p.settledStates) << where;
    EXPECT_EQ(r.settledUnique, p.settledUnique) << where;
    EXPECT_EQ(r.settledDigest, p.digest) << where;
    EXPECT_EQ(r.maxDepthReached, p.maxDepth) << where;
    EXPECT_FALSE(r.budgetExhausted) << where;
    EXPECT_TRUE(r.complete) << where;
    EXPECT_TRUE(r.violations.empty()) << where;
}

} // anonymous namespace

TEST(Verify, TraversalCountersPinned)
{
    // The coverage baseline pins state counts only; this pins every
    // counter of each traversal -- full and POR exploration, the
    // liveness graph and the refinement search -- so a change to
    // how the search moves between states (restore vs. replay)
    // cannot silently change what it visits. B-gr2blk is left to
    // the verify_sweep golden (about 9 s per leg).
    const Pin full[] = {
        {"A-dw", 120, 244, 125, 5, 1, 16, 0xc78b2a2d452277e1ull},
        {"A-gr", 124, 255, 132, 6, 1, 15, 0xd0d9c452d1206f5cull},
        {"B-3cpu", 31421, 126625, 95205, 9, 1, 52,
         0xeb0670409df7bae8ull},
        {"C-evict", 213, 437, 225, 4, 2, 29, 0x25cc56f89f149aa2ull},
        {"D-timeout", 268, 721, 454, 8, 1, 14, 0x58aa72044e6d6493ull},
        {"E-crash", 11570, 37666, 26097, 62, 13, 96,
         0xa9a230f4a4f92407ull},
    };
    const Pin por[] = {
        {"A-dw", 101, 152, 43, 3, 1, 15, 0xc78b2a2d452277e1ull},
        {"A-gr", 110, 162, 51, 3, 1, 15, 0xd0d9c452d1206f5cull},
        {"B-3cpu", 5635, 11200, 4504, 5, 1, 52,
         0xeb0670409df7bae8ull},
        {"C-evict", 95, 102, 8, 2, 2, 29, 0x25cc56f89f149aa2ull},
        {"D-timeout", 245, 675, 299, 5, 1, 14, 0x58aa72044e6d6493ull},
        {"E-crash", 9512, 28404, 16450, 56, 13, 106,
         0xa9a230f4a4f92407ull},
    };

    for (const VerifyConfig &cfg : sweepConfigs()) {
        std::size_t i = 0;
        while (i < std::size(full) && cfg.name != full[i].name)
            ++i;
        if (i == std::size(full))
            continue;

        VerifyConfig cf = cfg;
        cf.opt.por = false;
        expectPinned(Explorer(cf).explore(), full[i], "full");
        VerifyConfig cp = cfg;
        cp.opt.por = true;
        expectPinned(Explorer(cp).explore(), por[i], "por");

        // The liveness graph is the full exploration's graph.
        ExploreResult live = verify::checkLiveness(cfg);
        EXPECT_EQ(live.states, full[i].states) << cfg.name;
        EXPECT_EQ(live.edges, full[i].edges) << cfg.name;
        EXPECT_TRUE(live.complete) << cfg.name;
    }

    const struct
    {
        cache::Mode mode;
        std::uint64_t states, edges, prunedSeen;
        unsigned maxDepth;
    } refine[] = {
        {cache::Mode::DistributedWrite, 226, 458, 233, 16},
        {cache::Mode::GlobalRead, 241, 483, 243, 15},
    };
    for (const auto &p : refine) {
        VerifyConfig cfg = smallConfig(p.mode);
        ExploreResult r = verify::checkRefinement(cfg);
        EXPECT_EQ(r.states, p.states) << cfg.name;
        EXPECT_EQ(r.edges, p.edges) << cfg.name;
        EXPECT_EQ(r.prunedSeen, p.prunedSeen) << cfg.name;
        EXPECT_EQ(r.maxDepthReached, p.maxDepth) << cfg.name;
        EXPECT_TRUE(r.complete) << cfg.name;
        EXPECT_TRUE(r.violations.empty()) << cfg.name;
    }
}
