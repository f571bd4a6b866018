#include "state.hh"

#include <algorithm>
#include <map>
#include <set>

#include "proto/checker.hh"
#include "sim/logging.hh"

namespace mscp::verify
{

const char *
actionKindName(ActionKind k)
{
    switch (k) {
      case ActionKind::Issue: return "issue";
      case ActionKind::Commit: return "commit";
      case ActionKind::Retry: return "retry";
      case ActionKind::Timeout: return "timeout";
      case ActionKind::Deliver: return "deliver";
      case ActionKind::Sweep: return "sweep";
      case ActionKind::Rejoin: return "rejoin";
      case ActionKind::Crash: return "crash";
      default: return "unknown";
    }
}

std::uint64_t
VerifyConfig::numBlocks() const
{
    std::uint64_t max_blk = 0;
    bool any = false;
    for (const auto &prog : program) {
        for (const auto &ref : prog) {
            max_blk = std::max(max_blk,
                               static_cast<std::uint64_t>(
                                   geometry.blockOf(ref.addr)));
            any = true;
        }
    }
    return any ? max_blk + 1 : 0;
}

EngineGateway::EngineGateway(const VerifyConfig &cfg_,
                             bool with_trace)
    : cfg(cfg_), withTrace(with_trace)
{
    panic_if(cfg.nodes < 2 || (cfg.nodes & (cfg.nodes - 1)),
             "verify: node count must be a power of two >= 2");
    panic_if(cfg.program.size() > cfg.nodes,
             "verify: more programs than nodes");
    nBlocks = cfg.numBlocks();

    // Symmetry reduction is sound only when no cache set can
    // overflow: eviction hand-offs materialize candidate lists in
    // ascending node-id order, which a role permutation does not
    // preserve. Statically check that every cpu's program touches
    // at most assoc distinct blocks per set.
    symEligible = true;
    for (const auto &prog : cfg.program) {
        std::map<unsigned, std::set<BlockId>> perSet;
        for (const auto &ref : prog) {
            BlockId b = cfg.geometry.blockOf(ref.addr);
            perSet[cfg.geometry.setOf(b)].insert(b);
        }
        for (const auto &[set, blks] : perSet) {
            (void)set;
            if (blks.size() > cfg.geometry.assoc) {
                symEligible = false;
                break;
            }
        }
        if (!symEligible)
            break;
    }

    buildEngine();
    if (!withTrace)
        save(initial);
}

EngineGateway::~EngineGateway() = default;

void
EngineGateway::buildEngine()
{
    net = std::make_unique<net::OmegaNetwork>(cfg.nodes);

    proto::ConcurrentParams p;
    p.geometry = cfg.geometry;
    p.defaultMode = cfg.mode;
    p.hitLatency = 1;
    p.thinkTime = 0;
    p.timeoutBase = cfg.opt.timeoutBase;
    p.maxRetries = cfg.opt.maxRetries;
    p.watchdogPeriod = 0;
    // The stabilization window must never fire on its own: sweeps
    // and wedged-busy checks are explorer actions. Controlled mode
    // abstracts real time away (one tick per action), so any
    // tick-difference heuristic in the engine is pushed beyond the
    // horizon and replaced by an explicit transition.
    p.crashSuspectDelay = Tick{1} << 40;
    p.traceEnabled = withTrace;
    if (cfg.opt.crashBudget > 0) {
        // A dummy far-future plan flips crashEnabled() (which gates
        // the recovery machinery); the event never fires because
        // run() -- which would schedule it -- is never called.
        p.crashPlan =
            CrashPlan::singleNode(0, Tick{1} << 62, 0);
    }

    eng = std::make_unique<Engine>(*net, p);
    eng->vControlled = true;
    eng->vDedupSends = cfg.opt.dedupResends;

    std::uint64_t total = 0;
    for (std::size_t c = 0; c < cfg.program.size(); ++c) {
        for (workload::MemRef ref : cfg.program[c]) {
            ref.cpu = static_cast<NodeId>(c);
            eng->cpus[c].queue.push_back(ref);
            ++total;
        }
    }
    eng->refsOutstanding = total;
}

template <typename To, typename From>
void
EngineGateway::copyState(To &to, const From &from)
{
    to.ctrs = from.ctrs;
    to.msgs = from.msgs;
    to.cpus = from.cpus;
    to.homes = from.homes;
    to.deadNodes = from.deadNodes;
    to.lastCompleted = from.lastCompleted;
    to.pendingWrites = from.pendingWrites;
    to._valueErrors = from._valueErrors;
    to.vPending = from.vPending;
    to.vSweepPending = from.vSweepPending;
    to.vObsLog = from.vObsLog;
    to.vMemSend = from.vMemSend;
    to.readLatSum = from.readLatSum;
    to.writeLatSum = from.writeLatSum;
    to.readsDone = from.readsDone;
    to.writesDone = from.writesDone;
    to.refsOutstanding = from.refsOutstanding;
}

void
EngineGateway::save(Snapshot &s) const
{
    // Controlled mode schedules nothing but advance()'s sentinel,
    // which has fired by the time an action returns: the queue's
    // tick is all of its state that matters.
    panic_if(!eng->eq.empty(),
             "verify: snapshot taken with events pending");
    copyState(s, *eng);
    s.tick = eng->eq.curTick();
}

void
EngineGateway::restore(const Snapshot &s)
{
    panic_if(withTrace, "verify: a traced gateway is never restored");
    copyState(*eng, s);
    eng->eq.reset(s.tick);
}

void
EngineGateway::reset()
{
    restore(initial);
}

void
SnapshotStack::save(const EngineGateway &gw, std::size_t depth)
{
    if (slots.size() <= depth)
        slots.resize(depth + 1);
    gw.save(slots[depth]);
}

void
SnapshotStack::restore(EngineGateway &gw, std::size_t depth) const
{
    gw.restore(slots[depth]);
}

const Tracer &
EngineGateway::tracer() const
{
    return eng->_tracer;
}

void
EngineGateway::markAction(const Action &a, std::uint64_t step)
{
    eng->trace(TraceEvent::VerifyAction, a.node,
               a.kind == ActionKind::Deliver ? a.dst : a.node,
               static_cast<std::uint8_t>(a.kind), step, a.blk);
}

std::uint64_t
EngineGateway::refsOutstanding() const
{
    return eng->refsOutstanding;
}

std::uint64_t
EngineGateway::valueErrors() const
{
    return eng->_valueErrors;
}

bool
EngineGateway::settled() const
{
    if (eng->refsOutstanding != 0 || !eng->vPending.empty() ||
        !eng->vSweepPending.empty())
        return false;
    for (const auto &h : eng->homes)
        if (!h.busy.empty())
            return false;
    return true;
}

std::uint64_t
EngineGateway::fingerprint(const Msg &m, bool src_is_mem)
{
    // FNV-1a over the full message content. Used to re-locate "the
    // same" message in a rebuilt engine's pending buffer during
    // counterexample replay; exploration itself never compares
    // fingerprints across engines.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(static_cast<std::uint64_t>(m.type));
    mix(m.src);
    mix(m.dst);
    mix(src_is_mem ? 1 : 0);
    mix(m.toMemory ? 1 : 0);
    mix(m.blk);
    mix(m.requester);
    mix(m.offset);
    mix(m.value);
    mix(m.seq);
    mix(m.tok);
    mix(m.flag ? 1 : 0);
    mix(static_cast<std::uint64_t>(m.field.state));
    mix(m.field.modified ? 1 : 0);
    mix(m.field.owner);
    for (std::size_t b = 0; b < m.field.present.size(); ++b)
        mix(m.field.present.test(b) ? 1 : 0);
    mix(m.data.size());
    for (std::uint64_t w : m.data)
        mix(w);
    return h;
}

Action
EngineGateway::describeDeliver(const Msg &m, bool src_is_mem,
                               std::uint32_t index)
{
    Action a;
    a.kind = ActionKind::Deliver;
    a.index = index;
    a.fp = fingerprint(m, src_is_mem);
    a.msgType = static_cast<std::uint8_t>(m.type);
    a.src = m.src;
    a.dst = m.dst;
    a.srcIsMem = src_is_mem;
    a.toMemory = m.toMemory;
    a.blk = m.blk;
    a.seq = m.seq;
    a.node = m.dst;
    return a;
}

bool
EngineGateway::isStreamHead(std::size_t i) const
{
    // FIFO stream key: (src, src role, dst, dst role). A sound
    // superset of the network's per-port-pair ordering that is
    // also equivariant under cache-role permutations (the physical
    // port pair mixes home- and cache-role traffic, whose node ids
    // permute differently).
    const auto &p = eng->vPending;
    for (std::size_t j = 0; j < i; ++j) {
        if (p[j].msg.src == p[i].msg.src &&
            p[j].srcIsMem == p[i].srcIsMem &&
            p[j].msg.dst == p[i].msg.dst &&
            p[j].msg.toMemory == p[i].msg.toMemory)
            return false;
    }
    return true;
}

bool
EngineGateway::deadSrcPending(NodeId n) const
{
    const unsigned count = static_cast<unsigned>(eng->cpus.size());
    for (const auto &p : eng->vPending) {
        if (p.srcIsMem || p.msg.src >= count)
            continue;
        if (n == invalidNode ? eng->deadNodes.test(p.msg.src)
                             : p.msg.src == n)
            return true;
    }
    return false;
}

bool
EngineGateway::deliverEligible(std::size_t i) const
{
    if (cfg.opt.fifoChannels && !isStreamHead(i))
        return false;
    // Stabilization ordering (see header): a RecoveryAck -- whose
    // arrival can complete a directory reconstruction -- may not
    // overtake traffic a dead cache sent before it died. The real
    // network guarantees this by latency arithmetic (a post-crash
    // purge/ack round trip strictly outlasts any pre-crash
    // residual); the untimed model has to state it as a guard.
    if (eng->vPending[i].msg.type == proto::MsgType::RecoveryAck &&
        deadSrcPending())
        return false;
    return true;
}

std::vector<Action>
EngineGateway::enabledActions() const
{
    std::vector<Action> out;
    const unsigned n = static_cast<unsigned>(eng->cpus.size());

    auto cpuAct = [&](ActionKind k, NodeId c) {
        Action a;
        a.kind = k;
        a.node = c;
        out.push_back(a);
    };

    for (NodeId c = 0; c < n; ++c) {
        const auto &cs = eng->cpus[c];
        if (!cs.active && cs.hasQueued() &&
            !eng->deadNodes.test(c))
            cpuAct(ActionKind::Issue, c);
    }
    for (NodeId c = 0; c < n; ++c) {
        if (eng->cpus[c].active && eng->cpus[c].vCommitPending)
            cpuAct(ActionKind::Commit, c);
    }
    for (NodeId c = 0; c < n; ++c) {
        if (eng->cpus[c].active && eng->cpus[c].vDeferred)
            cpuAct(ActionKind::Retry, c);
    }
    for (std::size_t i = 0; i < eng->vPending.size(); ++i) {
        if (!deliverEligible(i))
            continue;
        out.push_back(describeDeliver(
            eng->vPending[i].msg, eng->vPending[i].srcIsMem,
            static_cast<std::uint32_t>(i)));
    }

    // Timeouts enumerate after deliveries: a timer firing is the
    // "late" outcome, and budgeted DFS then explores completing
    // paths before descending into the (unbounded) retry subtrees.
    if (cfg.opt.timeoutBase > 0) {
        for (NodeId c = 0; c < n; ++c) {
            if (eng->cpus[c].active && eng->cpus[c].timeoutArmed)
                cpuAct(ActionKind::Timeout, c);
        }
    }

    // The stabilization sweep models a timer set past the network's
    // drain horizon: it cannot run while the dead node's own sends
    // are still in flight.
    for (NodeId d : eng->vSweepPending)
        if (!deadSrcPending(d))
            cpuAct(ActionKind::Sweep, d);

    if (cfg.opt.allowRejoin) {
        for (NodeId c = 0; c < n; ++c) {
            if (eng->deadNodes.test(c))
                cpuAct(ActionKind::Rejoin, c);
        }
    }
    if (cfg.opt.crashBudget > 0 &&
        eng->ctrs.crashes < cfg.opt.crashBudget) {
        for (NodeId c = 0; c < n; ++c) {
            if (!eng->deadNodes.test(c))
                cpuAct(ActionKind::Crash, c);
        }
    }
    return out;
}

void
EngineGateway::advance()
{
    // One sentinel event moves virtual time forward a tick, so the
    // tick stamps successive actions produce (durable-write
    // freshness, LRU clocks, eviction spans) stay causally ordered.
    // Nothing else ever reaches the queue in controlled mode.
    eng->eq.scheduleIn([] {}, 1);
    eng->eq.run();
}

void
EngineGateway::applyUnchecked(const Action &a)
{
    switch (a.kind) {
      case ActionKind::Issue:
        eng->issueNext(a.node);
        break;
      case ActionKind::Commit:
        eng->completeRef(a.node);
        break;
      case ActionKind::Retry:
        eng->cpus[a.node].vDeferred = false;
        eng->startAccess(a.node);
        break;
      case ActionKind::Timeout:
        eng->onTimeout(a.node, eng->cpus[a.node].vTimeoutSeq);
        break;
      case ActionKind::Deliver: {
        panic_if(a.index >= eng->vPending.size(),
                 "verify: deliver index out of range");
        Msg m = eng->vPending[a.index].msg;
        eng->vPending.erase(eng->vPending.begin() + a.index);
        eng->deliver(m);
        break;
      }
      case ActionKind::Sweep: {
        auto it = std::find(eng->vSweepPending.begin(),
                            eng->vSweepPending.end(), a.node);
        panic_if(it == eng->vSweepPending.end(),
                 "verify: sweep for node with no pending sweep");
        eng->vSweepPending.erase(it);
        bool saved = eng->vMemSend;
        eng->vMemSend = true;
        eng->homeSweepDead(a.node);
        eng->vMemSend = saved;
        break;
      }
      case ActionKind::Rejoin:
        eng->rejoinNode(a.node);
        break;
      case ActionKind::Crash:
        eng->crashNode(a.node, cfg.opt.allowRejoin ? 1 : 0);
        break;
      default:
        panic("verify: unknown action kind");
    }
}

void
EngineGateway::apply(const Action &a)
{
    advance();
    bool saved = loggingThrows();
    setLoggingThrows(true);
    try {
        applyUnchecked(a);
    } catch (...) {
        setLoggingThrows(saved);
        throw;
    }
    setLoggingThrows(saved);
}

bool
EngineGateway::enabledNonDeliver(const Action &a) const
{
    const unsigned n = static_cast<unsigned>(eng->cpus.size());
    if (a.kind != ActionKind::Deliver && a.node >= n)
        return false;
    switch (a.kind) {
      case ActionKind::Issue: {
        const auto &cs = eng->cpus[a.node];
        return !cs.active && cs.hasQueued() &&
               !eng->deadNodes.test(a.node);
      }
      case ActionKind::Commit:
        return eng->cpus[a.node].active &&
               eng->cpus[a.node].vCommitPending;
      case ActionKind::Retry:
        return eng->cpus[a.node].active &&
               eng->cpus[a.node].vDeferred;
      case ActionKind::Timeout:
        return cfg.opt.timeoutBase > 0 &&
               eng->cpus[a.node].active &&
               eng->cpus[a.node].timeoutArmed;
      case ActionKind::Sweep:
        return !deadSrcPending(a.node) &&
               std::find(eng->vSweepPending.begin(),
                         eng->vSweepPending.end(),
                         a.node) != eng->vSweepPending.end();
      case ActionKind::Rejoin:
        return cfg.opt.allowRejoin && eng->deadNodes.test(a.node);
      case ActionKind::Crash:
        return cfg.opt.crashBudget > 0 &&
               eng->ctrs.crashes < cfg.opt.crashBudget &&
               !eng->deadNodes.test(a.node);
      default:
        return false;
    }
}

bool
EngineGateway::applyIfEnabled(const Action &a)
{
    if (a.kind != ActionKind::Deliver) {
        if (!enabledNonDeliver(a))
            return false;
        apply(a);
        return true;
    }

    // Re-locate the message: exact content fingerprint first, then
    // a structural fallback (type/src/dst/blk/requester) so paths
    // whose sequence numbering shifted during minimization can
    // still replay. Restricted to stream heads under FIFO.
    auto eligible = [&](std::size_t i) {
        return deliverEligible(i);
    };
    std::size_t found = eng->vPending.size();
    for (std::size_t i = 0; i < eng->vPending.size(); ++i) {
        if (!eligible(i))
            continue;
        if (fingerprint(eng->vPending[i].msg,
                        eng->vPending[i].srcIsMem) == a.fp) {
            found = i;
            break;
        }
    }
    if (found == eng->vPending.size()) {
        for (std::size_t i = 0; i < eng->vPending.size(); ++i) {
            if (!eligible(i))
                continue;
            const Msg &m = eng->vPending[i].msg;
            if (static_cast<std::uint8_t>(m.type) == a.msgType &&
                m.src == a.src && m.dst == a.dst &&
                m.toMemory == a.toMemory && m.blk == a.blk &&
                eng->vPending[i].srcIsMem == a.srcIsMem) {
                found = i;
                break;
            }
        }
    }
    if (found == eng->vPending.size())
        return false;
    Action b = a;
    b.index = static_cast<std::uint32_t>(found);
    apply(b);
    return true;
}

ActionFootprint
EngineGateway::footprint(const Action &a) const
{
    ActionFootprint f;
    auto cpuComp = [](NodeId c) { return std::uint64_t{1} << c; };
    auto homeComp = [](NodeId h) {
        return std::uint64_t{1} << (32 + (h & 31));
    };
    auto mon = [&f, this](Addr addr, bool write) {
        f.hasMon = 1;
        f.monWrite = write ? 1 : 0;
        f.monBlk = cfg.geometry.blockOf(addr);
    };

    switch (a.kind) {
      case ActionKind::Issue: {
        // startAccess runs at the issuing cpu and only appends to
        // streams originating there; a write registers a pending
        // monitor value, a read may sample on a hit.
        f.comps = cpuComp(a.node);
        const auto &cs = eng->cpus[a.node];
        if (cs.hasQueued()) {
            const workload::MemRef &next = cs.queue[cs.head];
            mon(next.addr, next.isWrite);
        }
        break;
      }
      case ActionKind::Commit:
      case ActionKind::Retry:
      case ActionKind::Timeout: {
        // All three continue the cpu's current reference: a commit
        // completes it (monitor write for writes), a retry re-runs
        // startAccess (may sample on a hit), a timeout resends or
        // -- under a crash plan -- falls back through startAccess.
        f.comps = cpuComp(a.node);
        const auto &cs = eng->cpus[a.node];
        if (cs.active)
            mon(cs.ref.addr, cs.ref.isWrite);
        break;
      }
      case ActionKind::Deliver: {
        // A handler executes at the destination component and only
        // appends to streams originating there. The monitor is
        // touched by serves (read sampling: LoadReq either side,
        // LoadFwd at the owner) and by acks whose last arrival
        // completes a write (DwAck, InvalAck).
        f.comps = a.toMemory ? homeComp(a.dst) : cpuComp(a.dst);
        auto t = static_cast<proto::MsgType>(a.msgType);
        Addr base = cfg.geometry.baseOf(a.blk);
        if (t == proto::MsgType::LoadReq ||
            t == proto::MsgType::LoadFwd) {
            mon(base, /*write=*/false);
        } else if (t == proto::MsgType::DwAck ||
                   t == proto::MsgType::InvalAck) {
            mon(base, /*write=*/true);
        }
        break;
      }
      case ActionKind::Sweep:
      case ActionKind::Rejoin:
      case ActionKind::Crash:
      default:
        // Cross-component effects (deadNodes, recovery fences,
        // whole-node purges): dependent on everything.
        f.global = 1;
        break;
    }
    return f;
}

std::vector<ObsEvent>
EngineGateway::takeObservations()
{
    std::vector<ObsEvent> out;
    out.reserve(eng->vObsLog.size());
    for (const auto &o : eng->vObsLog)
        out.push_back({o.cpu, o.invoke, o.isWrite, o.addr, o.value});
    eng->vObsLog.clear();
    return out;
}

std::vector<std::uint64_t>
EngineGateway::pendingSamples() const
{
    std::vector<std::uint64_t> out;
    for (const auto &cs : eng->cpus) {
        // Only an active read's accepted sample is observable state
        // (its respond event will carry it); anything else is
        // stale scratch.
        bool pendingRead = cs.active && !cs.ref.isWrite;
        out.push_back(pendingRead ? cs.vSample : 0);
        out.push_back(pendingRead ? 1 : 0);
    }
    return out;
}

std::vector<std::string>
EngineGateway::checkInvariants() const
{
    const Engine *e = eng.get();
    proto::SystemView view;
    view.numCaches = static_cast<unsigned>(e->cpus.size());
    view.cacheArray =
        [e](NodeId c) -> const cache::CacheArray & {
            return e->cpus[c].array;
        };
    view.memoryModule =
        [e](unsigned i) -> const mem::MemoryModule & {
            return e->homes[i].mem;
        };
    view.homeOf = [e](BlockId b) { return e->homeOf(b); };
    view.isLive = [e](NodeId c) { return !e->deadNodes.test(c); };
    view.isQuiescent = [e] { return e->isQuiescent(); };
    view.expectedWord = [e](Addr a, std::uint64_t &v) {
        const std::uint64_t *w = e->lastCompleted.find(a);
        if (!w)
            return false;
        v = *w;
        return true;
    };
    view.numBlocks = nBlocks;
    return proto::checkInvariants(view);
}

} // namespace mscp::verify
