#include "explorer.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "proto/message.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"
#include "verify/canon.hh"
#include "verify/liveness.hh"
#include "verify/por.hh"

namespace mscp::verify
{

namespace
{

std::string
describeAction(const Action &a)
{
    if (a.kind == ActionKind::Deliver) {
        return csprintf("deliver %s %s%u -> %s%u blk=%llu seq=%llu",
                        proto::msgTypeName(
                            static_cast<proto::MsgType>(a.msgType)),
                        a.srcIsMem ? "home" : "cpu",
                        static_cast<unsigned>(a.src),
                        a.toMemory ? "home" : "cpu",
                        static_cast<unsigned>(a.dst),
                        static_cast<unsigned long long>(a.blk),
                        static_cast<unsigned long long>(a.seq));
    }
    return csprintf("%s %s%u", actionKindName(a.kind),
                    a.kind == ActionKind::Sweep ? "node" : "cpu",
                    static_cast<unsigned>(a.node));
}

/** Deterministic total order for the commutation normal form. */
bool
actionBefore(const Action &x, const Action &y)
{
    auto key = [](const Action &a) {
        return std::make_tuple(
            static_cast<unsigned>(a.kind),
            static_cast<unsigned>(a.node),
            static_cast<unsigned>(a.msgType),
            static_cast<unsigned>(a.src),
            static_cast<unsigned>(a.dst),
            static_cast<unsigned>(a.srcIsMem),
            static_cast<unsigned>(a.toMemory), a.blk, a.seq, a.fp);
    };
    return key(x) < key(y);
}

/** Order-independent mixer for the settled-coverage digest. */
std::uint64_t
mixHash(const Hash128 &h)
{
    std::uint64_t v = h.lo ^ (h.hi * 0x9e3779b97f4a7c15ull);
    v ^= v >> 33;
    v *= 0xff51afd7ed558ccdull;
    v ^= v >> 33;
    return v;
}

} // anonymous namespace

Explorer::Explorer(const VerifyConfig &cfg_) : cfg(cfg_) {}

std::string
Explorer::kindOf(const std::string &err)
{
    auto pos = err.find(':');
    return pos == std::string::npos ? err : err.substr(0, pos);
}

ExploreResult
Explorer::explore()
{
    SilenceLogging silent;
    ExploreResult res;
    EngineGateway gw(cfg);
    const bool por = cfg.opt.por;

    /** Sleep-set signature a state was (last) explored under; a
     *  revisit whose sleep set is a superset explores nothing new
     *  and prunes. Empty in full mode, so revisits always prune
     *  and the exploration is the exact pre-POR DFS. */
    struct StoredSleep
    {
        std::vector<std::uint64_t> keys; // sorted
    };

    struct Frame
    {
        std::vector<Action> acts;
        std::vector<ActionFootprint> fps; // parallel to acts
        std::vector<Action> deferred;     // enabled \ ample
        std::vector<ActionFootprint> deferredFps;
        std::vector<SleepEntry> sleepIn;  // sorted by key
        Hash128 h{};
        std::size_t next = 0;
    };

    std::unordered_map<Hash128, StoredSleep, Hash128Hasher> seen;
    std::unordered_map<Hash128, unsigned, Hash128Hasher> onStack;
    std::unordered_set<Hash128, Hash128Hasher> settledSeen;
    std::vector<Frame> frames;
    std::vector<Action> path;
    /** Depth d holds the state of frames[d], saved when the frame
     *  can take a second action (only then is it ever restored). */
    SnapshotStack snaps;

    auto sleepHas = [](const std::vector<SleepEntry> &sleep,
                       std::uint64_t key) {
        auto it = std::lower_bound(
            sleep.begin(), sleep.end(), key,
            [](const SleepEntry &e, std::uint64_t k) {
                return e.key < k;
            });
        return it != sleep.end() && it->key == key;
    };

    // Build a frame for the state the gateway currently sits in
    // (footprints inspect engine internals, so this must run before
    // the DFS moves on).
    auto buildFrame = [&](Hash128 h, std::vector<Action> &&enabled,
                          std::vector<SleepEntry> &&sleepIn) {
        Frame f;
        f.h = h;
        f.sleepIn = std::move(sleepIn);
        for (Action &a : enabled) {
            if (por && sleepHas(f.sleepIn, actionKey(a)))
                continue; // covered by an explored sibling branch
            f.fps.push_back(por ? gw.footprint(a)
                                : ActionFootprint{});
            f.acts.push_back(std::move(a));
        }
        if (por) {
            // Ample set = every non-Deliver action plus the
            // smallest dependence-closed cluster of Delivers; the
            // remaining Deliver clusters defer.  Restricting the
            // reduction to in-flight messages is what keeps it
            // sound here: components are always input-enabled, so
            // a deferred Issue/Timeout/Crash could react to state
            // the ample moves create (the classic C1 leak -- an
            // unrestricted smallest-cluster rule loses terminal
            // settled states on the eviction config).  Deferred
            // Delivers, by contrast, are concrete queued messages
            // whose footprints are fixed at enqueue time, and the
            // self-checking sweep audit (--por-audit) re-validates
            // the verdict and the settled-state digests against a
            // full run on every exhaustible config.
            std::vector<std::size_t> deliverIdx;
            std::vector<ActionFootprint> deliverFps;
            for (std::size_t i = 0; i < f.acts.size(); ++i) {
                if (f.acts[i].kind == ActionKind::Deliver) {
                    deliverIdx.push_back(i);
                    deliverFps.push_back(f.fps[i]);
                }
            }
            std::vector<std::size_t> sub = ampleCluster(deliverFps);
            if (!sub.empty()) {
                std::vector<bool> keep(f.acts.size(), true);
                for (std::size_t i : deliverIdx)
                    keep[i] = false;
                for (std::size_t k : sub)
                    keep[deliverIdx[k]] = true;
                std::vector<Action> acts;
                std::vector<ActionFootprint> fps;
                for (std::size_t i = 0; i < f.acts.size(); ++i) {
                    if (keep[i]) {
                        acts.push_back(std::move(f.acts[i]));
                        fps.push_back(f.fps[i]);
                    } else {
                        f.deferred.push_back(std::move(f.acts[i]));
                        f.deferredFps.push_back(f.fps[i]);
                    }
                }
                f.acts = std::move(acts);
                f.fps = std::move(fps);
            }
        }
        return f;
    };

    // Push a frame for the gateway's current state.
    auto pushFrame = [&](Frame &&f) {
        if (f.acts.size() + f.deferred.size() > 1)
            snaps.save(gw, frames.size());
        ++onStack[f.h];
        frames.push_back(std::move(f));
    };

    Hash128 rootH = hashBytes(gw.canonical());
    seen.emplace(rootH, StoredSleep{});
    res.states = 1;
    {
        std::vector<Action> acts = gw.enabledActions();
        if (acts.empty() && gw.refsOutstanding() > 0) {
            Violation v;
            v.kind = "deadlock";
            v.details.push_back(
                "initial state has outstanding references and no "
                "enabled action");
            res.violations.push_back(v);
            return res;
        }
        pushFrame(buildFrame(rootH, std::move(acts), {}));
    }

    auto fail = [&](std::string kind,
                    std::vector<std::string> details) {
        Violation v;
        v.kind = std::move(kind);
        v.details = std::move(details);
        v.path = path;
        res.violations.push_back(std::move(v));
    };

    while (!frames.empty()) {
        Frame &f = frames.back();
        if (f.next >= f.acts.size()) {
            auto os = onStack.find(f.h);
            if (os != onStack.end() && --os->second == 0)
                onStack.erase(os);
            frames.pop_back();
            if (!path.empty())
                path.pop_back();
            continue;
        }
        const std::size_t ai = f.next++;
        const Action a = f.acts[ai];

        // The first action leaves from the state the frame was
        // pushed in; every later one from the saved copy of it.
        if (ai > 0)
            snaps.restore(gw, frames.size() - 1);

        bool panicked = false;
        std::string panicMsg;
        try {
            gw.apply(a);
        } catch (const PanicError &pe) {
            panicked = true;
            panicMsg = pe.message;
        }
        ++res.edges;
        path.push_back(a);
        res.maxDepthReached = std::max(
            res.maxDepthReached,
            static_cast<unsigned>(path.size()));

        if (panicked) {
            fail("panic", {panicMsg});
            return res;
        }
        if (gw.valueErrors() > 0) {
            fail("value",
                 {csprintf("%llu linearizability value error(s)",
                           static_cast<unsigned long long>(
                               gw.valueErrors()))});
            return res;
        }

        Hash128 h = hashBytes(gw.canonical());
        if (gw.settled()) {
            ++res.settledStates;
            if (settledSeen.insert(h).second) {
                ++res.settledUnique;
                res.settledDigest ^= mixHash(h);
            }
            auto errs = gw.checkInvariants();
            if (!errs.empty()) {
                fail(kindOf(errs[0]), errs);
                return res;
            }
        }

        std::vector<Action> acts = gw.enabledActions();
        if (acts.empty() && gw.refsOutstanding() > 0) {
            fail("deadlock",
                 {csprintf("%llu reference(s) outstanding with no "
                           "enabled action",
                           static_cast<unsigned long long>(
                               gw.refsOutstanding()))});
            return res;
        }

        // Cycle proviso: an ample successor closing a DFS cycle
        // could postpone a deferred action forever around that
        // cycle; re-expand the frame in full.
        if (por && !f.deferred.empty() && onStack.count(h) > 0) {
            for (std::size_t i = 0; i < f.deferred.size(); ++i) {
                f.acts.push_back(std::move(f.deferred[i]));
                f.fps.push_back(f.deferredFps[i]);
            }
            f.deferred.clear();
            f.deferredFps.clear();
        }

        // Sleep set of the successor: everything asleep here plus
        // the already-explored siblings, minus whatever the taken
        // action wakes (dependence).
        std::vector<SleepEntry> childSleep;
        if (por) {
            const ActionFootprint &afp = f.fps[ai];
            for (const SleepEntry &s : f.sleepIn)
                if (!dependent(s.fp, afp))
                    childSleep.push_back(s);
            for (std::size_t j = 0; j < ai; ++j)
                if (!dependent(f.fps[j], afp))
                    childSleep.push_back(
                        {actionKey(f.acts[j]), f.fps[j]});
            std::sort(childSleep.begin(), childSleep.end(),
                      [](const SleepEntry &x, const SleepEntry &y) {
                          return x.key < y.key;
                      });
            childSleep.erase(
                std::unique(childSleep.begin(), childSleep.end(),
                            [](const SleepEntry &x,
                               const SleepEntry &y) {
                                return x.key == y.key;
                            }),
                childSleep.end());
        }

        auto it = seen.find(h);
        if (it != seen.end()) {
            // Revisit. Prune unless this visit carries a strictly
            // smaller sleep set than the state was explored under
            // (then transitions slept through before must run:
            // shrink the stored set and re-explore).
            bool superset = true;
            if (por) {
                for (std::uint64_t k : it->second.keys) {
                    if (!sleepHas(childSleep, k)) {
                        superset = false;
                        break;
                    }
                }
            }
            if (superset) {
                ++res.prunedSeen;
                path.pop_back();
                continue;
            }
            std::vector<std::uint64_t> inter;
            for (std::uint64_t k : it->second.keys)
                if (sleepHas(childSleep, k))
                    inter.push_back(k);
            it->second.keys = std::move(inter);
        } else {
            StoredSleep st;
            for (const SleepEntry &s : childSleep)
                st.keys.push_back(s.key);
            seen.emplace(h, std::move(st));
            ++res.states;
            if (res.states >= cfg.opt.maxStates) {
                res.budgetExhausted = true;
                break;
            }
        }
        if (path.size() >= cfg.opt.maxDepth) {
            ++res.prunedDepth;
            path.pop_back();
            continue;
        }
        pushFrame(
            buildFrame(h, std::move(acts), std::move(childSleep)));
    }

    res.complete = res.violations.empty() && !res.budgetExhausted &&
                   res.prunedDepth == 0;
    return res;
}

bool
Explorer::reproduces(EngineGateway &gw,
                     const std::vector<Action> &actions,
                     const std::string &kind)
{
    gw.reset();
    for (const Action &a : actions) {
        bool applied = false;
        try {
            applied = gw.applyIfEnabled(a);
        } catch (const PanicError &) {
            return kind == "panic";
        }
        if (!applied)
            return false;
        if (gw.valueErrors() > 0 && kind == "value")
            return true;
        if (gw.settled()) {
            for (const std::string &err : gw.checkInvariants())
                if (kindOf(err) == kind)
                    return true;
        }
        if (kind == "deadlock" && gw.refsOutstanding() > 0 &&
            gw.enabledActions().empty())
            return true;
    }
    return false;
}

void
Explorer::normalizeTrace(EngineGateway &gw,
                         std::vector<Action> &cur,
                         const std::string &kind)
{
    // Bubble adjacent actions toward the canonical order whenever
    // the swapped path still reproduces. Independent schedules of
    // the same fault (a POR run enumerates interleavings in a
    // different order than a full run) converge to one normal
    // form; a swap that breaks reproduction is simply rejected, so
    // correctness never rests on the independence relation here.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i + 1 < cur.size(); ++i) {
            if (!actionBefore(cur[i + 1], cur[i]))
                continue;
            std::swap(cur[i], cur[i + 1]);
            if (reproduces(gw, cur, kind))
                changed = true;
            else
                std::swap(cur[i], cur[i + 1]);
        }
    }
}

Violation
Explorer::minimize(const Violation &v)
{
    if (v.kind == "livelock")
        return minimizeLasso(cfg, v);

    SilenceLogging silent;
    EngineGateway gw(cfg);
    std::vector<Action> cur = v.path;

    // Single-removal delta debugging to fixpoint: drop any one
    // action whose removal still replays to the same violation
    // kind. Quadratic in path length, which minimized paths keep
    // small; determinism of the replay makes the result stable.
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < cur.size(); ++i) {
            std::vector<Action> cand;
            cand.reserve(cur.size() - 1);
            for (std::size_t j = 0; j < cur.size(); ++j)
                if (j != i)
                    cand.push_back(cur[j]);
            if (reproduces(gw, cand, v.kind)) {
                cur = std::move(cand);
                changed = true;
                break;
            }
        }
    }
    normalizeTrace(gw, cur, v.kind);
    Violation out;
    out.kind = v.kind;
    out.details = v.details;
    out.path = std::move(cur);
    return out;
}

std::string
Explorer::renderViolation(const VerifyConfig &cfg,
                          const Violation &v,
                          const Violation &minimized)
{
    std::ostringstream os;
    os << "mscp-verify counterexample\n";
    os << csprintf(
        "config: %s nodes=%u mode=%s geometry=%ux%ux%u blocks=%llu "
        "fifo=%d symmetry=%d timeoutBase=%llu maxRetries=%u "
        "crashBudget=%u rejoin=%d\n",
        cfg.name.c_str(), cfg.nodes,
        cfg.mode == cache::Mode::DistributedWrite ? "dw" : "gr",
        cfg.geometry.blockWords, cfg.geometry.numSets,
        cfg.geometry.assoc,
        static_cast<unsigned long long>(cfg.numBlocks()),
        cfg.opt.fifoChannels ? 1 : 0, cfg.opt.symmetry ? 1 : 0,
        static_cast<unsigned long long>(cfg.opt.timeoutBase),
        cfg.opt.maxRetries, cfg.opt.crashBudget,
        cfg.opt.allowRejoin ? 1 : 0);
    os << "violation: " << v.kind << "\n";
    for (const std::string &d : v.details)
        os << "detail: " << d << "\n";
    os << csprintf("steps: %zu (minimized from %zu)\n",
                   minimized.path.size(), v.path.size());
    for (std::size_t i = 0; i < minimized.path.size(); ++i)
        os << csprintf("  %zu. %s\n", i + 1,
                       describeAction(minimized.path[i]).c_str());
    if (!minimized.cycle.empty()) {
        os << csprintf(
            "cycle: %zu step(s), repeating forever (minimized "
            "from %zu)\n",
            minimized.cycle.size(), v.cycle.size());
        for (std::size_t i = 0; i < minimized.cycle.size(); ++i)
            os << csprintf(
                "  %zu. %s\n", minimized.path.size() + i + 1,
                describeAction(minimized.cycle[i]).c_str());
    }
    return os.str();
}

void
Explorer::exportTrace(const VerifyConfig &cfg,
                      const std::vector<Action> &path,
                      std::ostream &os)
{
    SilenceLogging silent;
    EngineGateway gw(cfg, /*with_trace=*/true);
    for (std::size_t i = 0; i < path.size(); ++i) {
        gw.markAction(path[i], i + 1);
        try {
            if (!gw.applyIfEnabled(path[i]))
                break;
        } catch (const PanicError &) {
            break; // the violating step itself; recording is done
        }
    }
    exportChromeTrace(os, gw.tracer());
}

} // namespace mscp::verify
