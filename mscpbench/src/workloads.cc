#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/latency.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "net/omega_network.hh"
#include "net/timed_network.hh"
#include "proto/checker.hh"
#include "proto/concurrent.hh"
#include "proto/dragon.hh"
#include "proto/full_map.hh"
#include "proto/no_cache.hh"
#include "proto/write_once.hh"
#include "sim/eventq.hh"
#include "sim/fault.hh"
#include "verify/explorer.hh"
#include "workload/patterns.hh"
#include "workload/placement.hh"
#include "workload/shared_block.hh"

namespace mscpbench
{

namespace
{

using namespace mscp;
using core::EngineKind;
using workload::MemRef;
using Refs = std::vector<MemRef>;
using StreamFactory =
    std::function<std::unique_ptr<workload::ReferenceStream>()>;
using Layer = std::map<std::string, double>;

/** splitmix64 of (a, b): derives every input seed from the run's. */
std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Replays a materialised reference string. */
class VectorStream final : public workload::ReferenceStream
{
  public:
    explicit VectorStream(const Refs &refs) : refs(refs) {}
    bool
    next(MemRef &ref) override
    {
        if (pos == refs.size())
            return false;
        ref = refs[pos++];
        return true;
    }
    std::string name() const override { return "materialised"; }
    void reset() override { pos = 0; }

  private:
    const Refs &refs;
    std::size_t pos = 0;
};

/** A program's references repeated, each write with a fresh value. */
class RepeatedProgram final : public workload::ReferenceStream
{
  public:
    RepeatedProgram(Refs program, unsigned reps)
        : program(std::move(program)), total(this->program.size() * reps)
    {}
    bool
    next(MemRef &ref) override
    {
        if (pos == total)
            return false;
        ref = program[pos++ % program.size()];
        if (ref.isWrite)
            ref.value = ++value;
        return true;
    }
    std::string name() const override { return "repeated-program"; }
    void
    reset() override
    {
        pos = 0;
        value = 0;
    }

  private:
    Refs program;
    std::size_t total;
    std::size_t pos = 0;
    std::uint64_t value = 0;
};

Refs
materialise(workload::ReferenceStream &s)
{
    Refs out;
    MemRef r;
    while (s.next(r))
        out.push_back(r);
    return out;
}

bool
sameRefs(const Refs &a, const Refs &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const MemRef &x, const MemRef &y) {
                          return x.cpu == y.cpu && x.addr == y.addr &&
                              x.isWrite == y.isWrite &&
                              x.value == y.value;
                      });
}

/** Records failed checks; each names workload, seed, point, check. */
class Gate
{
  public:
    explicit Gate(Report &rep) : rep(rep) {}

    bool
    check(bool ok, const std::string &point, const char *what,
          const std::string &detail = "")
    {
        if (ok)
            return true;
        std::string msg = "FAIL workload=" + rep.workload +
            " seed=" + std::to_string(rep.seed) + " point=" + point +
            " check=" + what;
        if (!detail.empty())
            msg += " (" + detail + ")";
        std::fprintf(stderr, "%s\n", msg.c_str());
        rep.failures.push_back(msg);
        return false;
    }

  private:
    Report &rep;
};

// ------------------------------------------------------------------
// Engines
// ------------------------------------------------------------------

/** Machine shape of one simulated run. */
struct Shape
{
    unsigned ports = 64;
    cache::Geometry geom{4, 16, 2};
};

/** The paper's seven atomic engines, in report order. */
constexpr EngineKind kAtomic[] = {
    EngineKind::NoCache, EngineKind::WriteOnce, EngineKind::FullMap,
    EngineKind::Dragon, EngineKind::TwoModeForceDW,
    EngineKind::TwoModeForceGR, EngineKind::TwoModeAdaptive,
};
constexpr std::size_t kNumAtomic = std::size(kAtomic);

/**
 * One atomic engine on its own network, built exactly as
 * core::runPoint builds it, so its results match that call's.
 */
class AtomicRig
{
  public:
    virtual ~AtomicRig() = default;
    virtual proto::CoherenceProtocol &protocol() = 0;
    virtual proto::RunResult run(workload::ReferenceStream &s) = 0;
};

template <typename P>
class BaselineRig final : public AtomicRig
{
  public:
    explicit BaselineRig(const Shape &s)
        : net(s.ports), p(net, proto::MessageSizes{}, s.geom.blockWords)
    {}
    proto::CoherenceProtocol &protocol() override { return p; }
    proto::RunResult
    run(workload::ReferenceStream &s) override
    {
        return p.run(s);
    }

  private:
    net::OmegaNetwork net;
    P p;
};

class TwoModeRig final : public AtomicRig
{
  public:
    TwoModeRig(const Shape &s, core::PolicyKind policy)
        : sys(config(s, policy))
    {}
    proto::CoherenceProtocol &protocol() override
    {
        return sys.protocol();
    }
    proto::RunResult
    run(workload::ReferenceStream &s) override
    {
        return sys.run(s);
    }
    core::System &system() { return sys; }

  private:
    static core::SystemConfig
    config(const Shape &s, core::PolicyKind policy)
    {
        core::SystemConfig cfg;
        cfg.numPorts = s.ports;
        cfg.geometry = s.geom;
        cfg.policy = policy;
        cfg.adaptWindow = core::SweepPoint{}.adaptWindow;
        return cfg;
    }

    core::System sys;
};

std::unique_ptr<AtomicRig>
makeRig(EngineKind e, const Shape &s)
{
    switch (e) {
      case EngineKind::NoCache:
        return std::make_unique<BaselineRig<proto::NoCacheProtocol>>(s);
      case EngineKind::WriteOnce:
        return std::make_unique<BaselineRig<proto::WriteOnceProtocol>>(
            s);
      case EngineKind::FullMap:
        return std::make_unique<BaselineRig<proto::FullMapProtocol>>(s);
      case EngineKind::Dragon:
        return std::make_unique<
            BaselineRig<proto::DragonUpdateProtocol>>(s);
      case EngineKind::TwoModeForceDW:
        return std::make_unique<TwoModeRig>(s,
                                            core::PolicyKind::ForceDW);
      case EngineKind::TwoModeForceGR:
        return std::make_unique<TwoModeRig>(s,
                                            core::PolicyKind::ForceGR);
      case EngineKind::TwoModeAdaptive:
        return std::make_unique<TwoModeRig>(s,
                                            core::PolicyKind::Adaptive);
      default:
        throw std::logic_error("not an atomic engine");
    }
}

/** What one message-level concurrent run produced. */
struct ConcurrentOutcome
{
    proto::ConcurrentRunResult run;
    proto::ConcurrentCounters ctrs;
    core::OpLatencies lat;
    std::uint64_t issued = 0;
    std::uint64_t msgs = 0;
    std::uint64_t events = 0;
    std::uint64_t drops = 0;
    std::uint64_t dups = 0;
    std::uint64_t windows = 0;
    std::uint64_t allocsTotal = 0; ///< construction + run
    std::uint64_t allocsRun = 0;
    std::uint64_t ns = 0;          ///< CPU time, construction + run
    std::uint64_t runNs = 0;
    bool quiescent = false;
    std::vector<std::string> invariantErrors;
};

/** Build a fresh engine (empty caches) and run @p refs through it. */
ConcurrentOutcome
runConcurrent(const Shape &shape, const proto::ConcurrentParams &cp,
              const Refs &refs, SpanLog *spans, const std::string &span)
{
    ConcurrentOutcome o;
    o.issued = refs.size();
    const std::uint64_t a0 = allocCount();
    const std::uint64_t t0 = cpuNs();
    net::OmegaNetwork net(shape.ports);
    proto::ConcurrentProtocol p(net, cp);
    p.setLatencySink(proto::ConcurrentProtocol::LatencySink(
        [lat = &o.lat](OpClass c, Tick v) { lat->sample(c, v); }));
    VectorStream stream(refs);
    {
        ScopedSpan s(spans, span);
        const std::uint64_t a1 = allocCount();
        const std::uint64_t t1 = cpuNs();
        o.run = p.run(stream);
        o.runNs = cpuNs() - t1;
        o.allocsRun = allocCount() - a1;
    }
    o.ns = cpuNs() - t0;
    o.allocsTotal = allocCount() - a0;
    o.ctrs = p.counters();
    o.msgs = p.messageCounters().totalCount();
    o.events = p.executedEvents();
    o.drops = p.faultCounters().totalDropped();
    o.dups = p.faultCounters().totalDuplicated();
    o.windows = p.metricsSampler().snapshots();
    o.quiescent = p.isQuiescent();
    if (o.quiescent && o.run.deadlocks == 0) {
        proto::SystemView v;
        v.numCaches = p.numCaches();
        v.cacheArray = [&p](NodeId c) -> const cache::CacheArray & {
            return p.cacheArray(c);
        };
        v.memoryModule = [&p](unsigned i) -> const mem::MemoryModule & {
            return p.memoryModule(i);
        };
        v.homeOf = [&p](BlockId b) { return p.homeOf(b); };
        v.isLive = [&p](NodeId c) { return p.isLive(c); };
        v.isQuiescent = [&p]() { return p.isQuiescent(); };
        o.invariantErrors = proto::checkInvariants(v);
    }
    return o;
}

bool
checkConcurrent(Gate &g, const std::string &point,
                const ConcurrentOutcome &o)
{
    bool ok = g.check(o.run.valueErrors == 0, point, "golden-values",
                      std::to_string(o.run.valueErrors) + " errors");
    ok &= g.check(o.run.refs == o.issued && o.run.refsLost == 0, point,
                  "completed-refs",
                  std::to_string(o.run.refs) + " of " +
                      std::to_string(o.issued));
    ok &= g.check(o.run.deadlocks == 0 && o.ctrs.watchdogDeadlocks == 0,
                  point, "watchdog-deadlocks");
    ok &= g.check(o.ctrs.retriesExhausted == 0, point,
                  "retries-exhausted");
    ok &= g.check(o.quiescent, point, "quiescent-end-state");
    ok &= g.check(o.invariantErrors.empty(), point,
                  "end-state-invariants",
                  o.invariantErrors.empty() ? ""
                                            : o.invariantErrors.front());
    return ok;
}

core::LatencyHistogram
mergedLatency(const core::OpLatencies &lat,
              std::initializer_list<OpClass> classes)
{
    core::LatencyHistogram h;
    for (OpClass c : classes)
        h.merge(lat.of(c));
    return h;
}

/** Modelled-design latency figures of merged concurrent runs. */
void
latencyFigures(const core::OpLatencies &lat, Layer &out)
{
    const auto reads =
        mergedLatency(lat, {OpClass::ReadHit, OpClass::ReadMiss});
    const auto writes = mergedLatency(
        lat, {OpClass::WriteHit, OpClass::WriteMiss, OpClass::Upgrade});
    out["sim.read_lat_p50"] = static_cast<double>(reads.percentile(0.5));
    out["sim.read_lat_p99"] =
        static_cast<double>(reads.percentile(0.99));
    out["sim.write_lat_p99"] =
        static_cast<double>(writes.percentile(0.99));
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(OpClass::NumClasses); ++c) {
        const auto cls = static_cast<OpClass>(c);
        const std::string base =
            std::string("sim.lat.") + opClassName(cls);
        out[base + ".p50"] =
            static_cast<double>(lat.of(cls).percentile(0.5));
        out[base + ".p99"] =
            static_cast<double>(lat.of(cls).percentile(0.99));
    }
}

// ------------------------------------------------------------------
// Message replay through the network layers
// ------------------------------------------------------------------

/** A point-to-point send (CoherenceProtocol::sendUnicast). */
bool
isUnicast(const proto::SentMessage &m)
{
    return m.scheme == net::Scheme::Unicasts && m.dests.size() == 1;
}

/** Omega replay passes: unicasts, multicasts under their recorded
 *  scheme, and multicasts forced to each scheme. */
struct OmegaPass
{
    const char *name;
    bool unicasts;
    std::optional<net::Scheme> forced; ///< empty: recorded scheme
};
constexpr OmegaPass kIdentityPasses[] = {
    {"unicast", true, std::nullopt},
    {"recorded", false, std::nullopt},
};
constexpr OmegaPass kSchemePasses[] = {
    {"scheme1", false, net::Scheme::Unicasts},
    {"scheme2", false, net::Scheme::VectorRouting},
    {"scheme3", false, net::Scheme::BroadcastTag},
    {"combined", false, net::Scheme::Combined},
};

/**
 * Replay @p msgs of one pass through a fresh OmegaNetwork's public
 * unicast()/multicast(). Co-located unicasts cost nothing, as in
 * the engines. @return total link bits; @p count gets the calls.
 */
Bits
omegaPass(unsigned ports, const std::vector<proto::SentMessage> &msgs,
          const OmegaPass &pass, SpanLog *spans, std::uint64_t &count)
{
    net::OmegaNetwork n(ports);
    ScopedSpan s(spans, std::string("net.omega.") + pass.name);
    for (const proto::SentMessage &m : msgs) {
        if (isUnicast(m) != pass.unicasts)
            continue;
        if (pass.unicasts) {
            if (m.src == m.dests[0])
                continue;
            n.unicast(m.src, m.dests[0], m.bits);
        } else {
            n.multicast(pass.forced.value_or(m.scheme), m.src, m.dests,
                        m.bits);
        }
        ++count;
    }
    return n.linkStats().totalBits();
}

/** Run @p e over @p refs with the message recorder attached. */
struct Recorded
{
    std::vector<proto::SentMessage> msgs;
    proto::RunResult run;
    Bits linkBits = 0;
};

Recorded
recordEngine(EngineKind e, const Shape &shape, const Refs &refs)
{
    Recorded out;
    auto rig = makeRig(e, shape);
    rig->protocol().setMessageRecorder(
        [&out](const proto::SentMessage &m) { out.msgs.push_back(m); });
    VectorStream st(refs);
    out.run = rig->run(st);
    out.linkBits = rig->protocol().network().linkStats().totalBits();
    return out;
}

/** Replayed omega bits must equal the engine's own link bits. */
bool
checkReplayIdentity(Gate &g, const std::string &point,
                    const Shape &shape, const Recorded &rec,
                    SpanLog *spans,
                    std::map<std::string, std::uint64_t> &counts)
{
    Bits replayed = 0;
    for (const OmegaPass &p : kIdentityPasses)
        replayed += omegaPass(shape.ports, rec.msgs, p, spans,
                              counts[p.name]);
    return g.check(replayed == rec.linkBits, point, "omega-replay-bits",
                   std::to_string(replayed) + " replayed vs " +
                       std::to_string(rec.linkBits) + " in linkStats");
}

// ------------------------------------------------------------------
// Workloads
// ------------------------------------------------------------------

/** What one measured unit (a "point") did. */
struct UnitResult
{
    std::uint64_t ops = 0;
    std::uint64_t allocs = 0;
    std::uint64_t ns = 0; ///< CPU time of the layer calls
    bool ok = true;
    /** Simulated results; must repeat exactly in every round. */
    std::vector<double> fingerprint;
};

/** One input of the traced run's layer ledger. */
struct LedgerInput
{
    std::string label;
    Shape shape;
    StreamFactory make;
    /** The set-up's copy of the input, or null when the measured
     *  points generate their own. */
    const Refs *refs;
    proto::ConcurrentParams params;
};

/** Modelled-design totals of the first round. */
struct SimTotals
{
    double bitsPerRef = 0;
    double msgsPerRef = 0;
};

class Workload
{
  public:
    Workload(const Options &opt, Report &rep, Gate &gate)
        : opt(opt), rep(rep), gate(gate)
    {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build what the measured points read, and nothing more. Every
     *  point constructs its own engine, so construction is timed
     *  with the point. */
    virtual void setup() = 0;
    virtual std::size_t units() const = 0;
    virtual std::string unitLabel(std::size_t i) const = 0;
    virtual UnitResult runUnit(std::size_t i, SpanLog *spans) = 0;
    /** Modelled-design metrics from the first round's results;
     *  also fills notes and the deterministic map. */
    virtual SimTotals simMetrics() = 0;
    /** Untimed checks of an untraced run; @return failed ops. */
    virtual std::uint64_t finalChecks() { return 0; }
    virtual std::vector<LedgerInput> ledgerInputs() const = 0;
    /** Per-layer figures only this workload's own path yields. */
    virtual void layerExtras(const SpanLog &, Layer &) {}

  protected:
    const Options &opt;
    Report &rep;
    Gate &gate;
};

proto::ConcurrentParams
plainParams(const cache::Geometry &g)
{
    proto::ConcurrentParams cp;
    cp.geometry = g;
    return cp;
}

/** Watchdog armed (tracer on with it) and windowed metrics on. */
void
setObservability(proto::ConcurrentParams &cp, bool on)
{
    cp.watchdogPeriod = on ? 50000 : 0;
    cp.watchdogAge = 200000;
    cp.metricsEnabled = on;
    cp.metricsWindow = 2048;
    cp.traceEnabled = false;
}

bool
observed(const proto::ConcurrentParams &cp)
{
    return cp.watchdogPeriod > 0 || cp.metricsEnabled;
}

/**
 * paper-grid: the paper's evaluation. Every atomic engine on the
 * shared-block model over write fraction x sharer count at 64 and
 * 256 ports, one core::runPoint call per point.
 */
class PaperGrid final : public Workload
{
  public:
    PaperGrid(const Options &o, Report &r, Gate &g) : Workload(o, r, g)
    {
        numRefs = o.quick ? 1000 : 10000;
        for (unsigned p : {64u, 256u})
            for (double w : {0.02, 0.05, 0.1, 0.2, 0.4})
                for (unsigned n : {2u, 4u, 8u, 16u, 32u})
                    cells.push_back({p, w, n, mix(o.seed, cells.size())});
        first.resize(units());
    }

    /** runPoint builds each point's stream and engine itself, so the
     *  sweep points are all the set-up there is. */
    void
    setup() override
    {
        points.clear();
        for (std::size_t i = 0; i < units(); ++i)
            points.push_back(point(i));
    }

    std::size_t units() const override
    {
        return cells.size() * kNumAtomic;
    }

    std::string
    unitLabel(std::size_t i) const override
    {
        return cellLabel(i / kNumAtomic) + ",engine=" +
            core::engineKindName(kAtomic[i % kNumAtomic]);
    }

    UnitResult
    runUnit(std::size_t i, SpanLog *spans) override
    {
        UnitResult u;
        const std::uint64_t a0 = allocCount();
        const std::uint64_t t0 = cpuNs();
        core::SweepResult r;
        {
            ScopedSpan s(spans, "core.runPoint");
            r = core::runPoint(points[i]);
        }
        u.ns = cpuNs() - t0;
        u.allocs = allocCount() - a0;
        u.ops = r.refs;
        u.ok = gate.check(r.valueErrors == 0, unitLabel(i),
                          "golden-values");
        u.ok &= gate.check(r.refs == numRefs, unitLabel(i),
                           "completed-refs");
        u.fingerprint = {static_cast<double>(r.refs),
                         static_cast<double>(r.networkBits),
                         static_cast<double>(r.messages),
                         static_cast<double>(r.events)};
        if (!first[i])
            first[i] = r;
        return u;
    }

    SimTotals
    simMetrics() override
    {
        double refs = 0, bits = 0, msgs = 0;
        for (std::size_t i = 0; i < first.size(); ++i) {
            refs += static_cast<double>(first[i]->refs);
            bits += static_cast<double>(first[i]->networkBits);
            msgs += static_cast<double>(first[i]->messages);
            rep.deterministic["point." + unitLabel(i) + ".bits"] =
                static_cast<double>(first[i]->networkBits);
        }
        return {ratio(bits, refs), ratio(msgs, refs)};
    }

    /** Replay identity and runPoint equivalence on every point. */
    std::uint64_t
    finalChecks() override
    {
        std::uint64_t failed = 0;
        std::map<std::string, std::uint64_t> counts;
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const Refs refs = materialise(*makeStream(c));
            for (std::size_t e = 0; e < kNumAtomic; ++e) {
                const std::size_t i = c * kNumAtomic + e;
                const Recorded rec = recordEngine(kAtomic[e], shape(c), refs);
                bool ok = gate.check(
                    rec.run.networkBits == first[i]->networkBits &&
                        rec.run.messages == first[i]->messages,
                    unitLabel(i), "runpoint-equivalence");
                ok &= checkReplayIdentity(gate, unitLabel(i), shape(c), rec,
                                          nullptr, counts);
                if (!ok)
                    failed += numRefs;
            }
        }
        return failed;
    }

    std::vector<LedgerInput>
    ledgerInputs() const override
    {
        std::vector<LedgerInput> in;
        for (std::size_t c = 0; c < cells.size(); ++c)
            in.push_back({cellLabel(c), shape(c),
                          [this, c] { return makeStream(c); }, nullptr,
                          plainParams(shape(c).geom)});
        return in;
    }

  private:
    struct Cell
    {
        unsigned ports;
        double w;
        unsigned tasks;
        std::uint64_t seed;
    };

    Shape shape(std::size_t c) const { return {cells[c].ports, {4, 16, 2}}; }

    std::string
    cellLabel(std::size_t c) const
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "ports=%u,w=%g,n=%u",
                      cells[c].ports, cells[c].w, cells[c].tasks);
        return buf;
    }

    core::SweepPoint
    point(std::size_t i) const
    {
        const Cell &cell = cells[i / kNumAtomic];
        core::SweepPoint pt;
        pt.engine = kAtomic[i % kNumAtomic];
        pt.numPorts = cell.ports;
        pt.blockWords = 4;
        pt.sets = 16;
        pt.assoc = 2;
        pt.tasks = cell.tasks;
        pt.writeFraction = cell.w;
        pt.numBlocks = 4;
        pt.numRefs = numRefs;
        pt.seed = cell.seed;
        return pt;
    }

    /** The stream core::runPoint builds for a cell's points. */
    std::unique_ptr<workload::ReferenceStream>
    makeStream(std::size_t c) const
    {
        const core::SweepPoint pt = point(c * kNumAtomic);
        workload::SharedBlockParams p;
        p.placement = workload::adjacentPlacement(pt.tasks);
        p.writeFraction = pt.writeFraction;
        p.numBlocks = pt.numBlocks;
        p.blockWords = pt.blockWords;
        p.baseAddr = static_cast<Addr>(pt.numPorts - pt.numBlocks) *
            pt.blockWords;
        p.numRefs = pt.numRefs;
        p.seed = pt.seed;
        return std::make_unique<workload::SharedBlockWorkload>(p);
    }

    std::uint64_t numRefs;
    std::vector<Cell> cells;
    std::vector<core::SweepPoint> points;
    std::vector<std::optional<core::SweepResult>> first;
};

/** Shared machinery of the two message-level workloads. */
class ConcurrentWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        refs.resize(points.size());
        first.resize(points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
            refs[i] = materialise(*points[i].make());
    }

    std::size_t units() const override { return points.size(); }
    std::string unitLabel(std::size_t i) const override
    {
        return points[i].label;
    }

    UnitResult
    runUnit(std::size_t i, SpanLog *spans) override
    {
        const Point &pt = points[i];
        ConcurrentOutcome o = runConcurrent(pt.shape, pt.params, refs[i],
                                            spans, "point.concurrent");
        UnitResult u;
        u.ops = o.run.refs;
        u.ns = o.ns;
        u.allocs = o.allocsTotal;
        u.ok = checkConcurrent(gate, pt.label, o);
        u.fingerprint = {
            static_cast<double>(o.run.refs),
            static_cast<double>(o.run.networkBits),
            static_cast<double>(o.msgs),
            static_cast<double>(o.events),
            static_cast<double>(o.run.makespan),
            static_cast<double>(o.drops),
            static_cast<double>(o.dups),
            static_cast<double>(o.ctrs.timeouts),
            static_cast<double>(o.ctrs.retries),
            static_cast<double>(o.lat.totalCount()),
        };
        if (!first[i])
            first[i] = std::move(o);
        return u;
    }

    SimTotals
    simMetrics() override
    {
        double refsN = 0, bits = 0, msgs = 0, makespan = 0;
        core::OpLatencies lat;
        for (std::size_t i = 0; i < first.size(); ++i) {
            const ConcurrentOutcome &o = *first[i];
            refsN += static_cast<double>(o.run.refs);
            bits += static_cast<double>(o.run.networkBits);
            msgs += static_cast<double>(o.msgs);
            makespan += static_cast<double>(o.run.makespan);
            lat.merge(o.lat);
            rep.deterministic["point." + points[i].label + ".makespan"] =
                static_cast<double>(o.run.makespan);
        }
        Layer figs;
        latencyFigures(lat, figs);
        for (const char *k : {"sim.read_lat_p50", "sim.read_lat_p99",
                              "sim.write_lat_p99"}) {
            std::string name = k;
            std::replace(name.begin(), name.end(), '.', '_');
            rep.note(name, figs[k], "ticks");
            rep.deterministic[name] = figs[k];
        }
        const double meanMakespan =
            ratio(makespan, static_cast<double>(first.size()));
        rep.note("sim_makespan_ticks", meanMakespan, "ticks");
        rep.deterministic["sim_makespan_ticks"] = meanMakespan;
        return {ratio(bits, refsN), ratio(msgs, refsN)};
    }

    std::vector<LedgerInput>
    ledgerInputs() const override
    {
        std::vector<LedgerInput> in;
        for (std::size_t i = 0; i < points.size(); ++i)
            in.push_back({points[i].label, points[i].shape,
                          points[i].make, &refs[i], points[i].params});
        return in;
    }

  protected:
    struct Point
    {
        std::string label;
        Shape shape;
        StreamFactory make;
        proto::ConcurrentParams params;
    };

    std::vector<Point> points;
    std::vector<Refs> refs;
    std::vector<std::optional<ConcurrentOutcome>> first;
};

/**
 * shared-concurrent: the message-level engine on the paper's shared
 * block model at 256 ports, read-mostly and heavily shared, with a
 * working set that fits the caches; no faults, timers or
 * observability.
 */
class SharedConcurrent final : public ConcurrentWorkload
{
  public:
    SharedConcurrent(const Options &o, Report &r, Gate &g)
        : ConcurrentWorkload(o, r, g)
    {
        const std::uint64_t n = o.quick ? 2000 : 20000;
        const Shape shape{256, {4, 16, 2}};
        for (unsigned t : {32u, 48u, 64u}) {
            for (double w : {0.02, 0.05, 0.1, 0.2}) {
                workload::SharedBlockParams p;
                p.placement = workload::adjacentPlacement(t);
                p.writeFraction = w;
                p.numBlocks = 4;
                p.blockWords = shape.geom.blockWords;
                p.baseAddr = static_cast<Addr>(shape.ports - 4) *
                    shape.geom.blockWords;
                p.numRefs = n;
                p.seed = mix(o.seed, points.size());
                char label[48];
                std::snprintf(label, sizeof label, "tasks=%u,w=%g", t, w);
                points.push_back(
                    {label, shape,
                     [p] {
                         return std::make_unique<
                             workload::SharedBlockWorkload>(p);
                     },
                     plainParams(shape.geom)});
            }
        }
    }
};

/**
 * evict-hardened: the message-level engine on a uniform-random
 * stream whose working set dwarfs the 128-word caches, under the
 * fault soak's recoverable fault plan with timeouts, the watchdog
 * (and with it the tracer) and windowed metrics on.
 */
class EvictHardened final : public ConcurrentWorkload
{
  public:
    EvictHardened(const Options &o, Report &r, Gate &g)
        : ConcurrentWorkload(o, r, g)
    {
        const Shape shape{64, {4, 16, 2}};
        for (unsigned i = 0; i < 6; ++i) {
            workload::UniformRandomParams p;
            p.numCpus = shape.ports;
            p.addrRange = 8192;
            p.writeFraction = 0.4;
            p.numRefs = o.quick ? 1000 : 6000;
            p.seed = mix(o.seed, i);

            proto::ConcurrentParams cp = plainParams(shape.geom);
            FaultPlan &plan = cp.faultPlan;
            plan.seed = mix(o.seed, 1000 + i);
            plan.of(FaultClass::Request).drop = 0.03;
            plan.of(FaultClass::Request).duplicate = 0.03;
            plan.of(FaultClass::Reply).duplicate = 0.03;
            for (FaultRates &rates : plan.rates) {
                rates.delay = 0.05;
                rates.delayMax = 8;
            }
            cp.timeoutBase = 512;
            cp.maxRetries = 12;
            cp.jitterSeed = plan.seed ^ 0x7e11;
            setObservability(cp, true);

            points.push_back(
                {"stream=" + std::to_string(i), shape,
                 [p] {
                     return std::make_unique<
                         workload::UniformRandomWorkload>(p);
                 },
                 cp});
        }
    }
};

/**
 * verify-audit: the B-3cpu model-checking config explored in full
 * and with partial-order reduction; the two must agree on verdict,
 * settled-state count and digest (the por-audit identity).
 */
class VerifyAudit final : public Workload
{
  public:
    VerifyAudit(const Options &o, Report &r, Gate &g) : Workload(o, r, g)
    {
        cfg = makeConfig();
        shape = {cfg.nodes, cfg.geometry};
    }

    /** Each audit builds its own explorers from the config. */
    void setup() override { cfg = makeConfig(); }

    std::size_t units() const override { return 1; }
    std::string unitLabel(std::size_t) const override
    {
        return cfg.name;
    }

    UnitResult
    runUnit(std::size_t, SpanLog *spans) override
    {
        verify::VerifyConfig cf = cfg, cp = cfg;
        cf.opt.por = false;
        cp.opt.por = true;
        UnitResult u;
        const std::uint64_t a0 = allocCount();
        const std::uint64_t t0 = cpuNs();
        verify::ExploreResult full, por;
        {
            ScopedSpan s(spans, "verify.full.explore");
            verify::Explorer ex(cf);
            full = ex.explore();
        }
        {
            ScopedSpan s(spans, "verify.por.explore");
            verify::Explorer ex(cp);
            por = ex.explore();
        }
        u.ns = cpuNs() - t0;
        u.allocs = allocCount() - a0;
        u.ops = full.states + por.states;
        u.ok = gate.check(full.violations.empty() && por.violations.empty(),
                          cfg.name, "no-violations");
        u.ok &= gate.check(full.complete && por.complete, cfg.name,
                           "exhausted");
        u.ok &= gate.check(full.settledUnique == por.settledUnique &&
                               full.settledDigest == por.settledDigest,
                           cfg.name, "por-audit-identity");
        u.fingerprint = {
            static_cast<double>(full.states),
            static_cast<double>(full.edges),
            static_cast<double>(full.prunedSeen),
            static_cast<double>(full.settledUnique),
            static_cast<double>(full.settledDigest),
            static_cast<double>(por.states),
            static_cast<double>(por.edges),
            static_cast<double>(por.settledDigest),
        };
        if (!first)
            first = {full, por};
        return u;
    }

    /** The audited program once on the timed engine: the design's
     *  traffic on it, and an oracle run of its own. */
    SimTotals
    simMetrics() override
    {
        const ConcurrentOutcome o = runConcurrent(
            shape, params(), flatten(cfg), nullptr, "verify.timed-run");
        checkConcurrent(gate, cfg.name + "/timed-run", o);
        Layer figs;
        latencyFigures(o.lat, figs);
        for (const char *k : {"sim.read_lat_p50", "sim.read_lat_p99",
                              "sim.write_lat_p99"}) {
            std::string name = k;
            std::replace(name.begin(), name.end(), '.', '_');
            rep.note(name, figs[k], "ticks");
            rep.deterministic[name] = figs[k];
        }
        rep.note("sim_makespan_ticks",
                 static_cast<double>(o.run.makespan), "ticks");
        rep.deterministic["sim_makespan_ticks"] =
            static_cast<double>(o.run.makespan);
        rep.deterministic["verify.full.states"] =
            static_cast<double>(first->first.states);
        rep.deterministic["verify.settled_digest"] =
            static_cast<double>(first->first.settledDigest);
        const double refs = static_cast<double>(o.run.refs);
        return {ratio(static_cast<double>(o.run.networkBits), refs),
                ratio(static_cast<double>(o.msgs), refs)};
    }

    /** The ledger's layers need more than one program's worth of
     *  references to time, so the program repeats. */
    std::vector<LedgerInput>
    ledgerInputs() const override
    {
        const unsigned reps = opt.quick ? 50 : 1000;
        return {{cfg.name + "-repeated", shape,
                 [program = flatten(cfg), reps] {
                     return std::make_unique<RepeatedProgram>(program, reps);
                 },
                 nullptr, params()}};
    }

    void
    layerExtras(const SpanLog &spans, Layer &out) override
    {
        const auto totals = spans.totals();
        const verify::ExploreResult &full = first->first;
        const verify::ExploreResult &por = first->second;
        for (const auto &[name, r] :
             {std::pair<const char *, const verify::ExploreResult *>{
                  "full", &full},
              {"por", &por}}) {
            const std::string base = std::string("verify.") + name;
            out[base + ".states"] = static_cast<double>(r->states);
            out[base + ".edges"] = static_cast<double>(r->edges);
            const auto it = totals.find(base + ".explore");
            if (it != totals.end())
                out[base + ".states_per_s"] =
                    ratio(static_cast<double>(r->states) *
                              static_cast<double>(it->second.count),
                          it->second.totalNs / 1e9);
        }
        out["verify.full.revisit_ratio"] =
            ratio(static_cast<double>(full.prunedSeen),
                  static_cast<double>(full.edges));
        out["verify.por.reduction"] =
            ratio(static_cast<double>(full.states),
                  static_cast<double>(por.states));
        out["verify.settled_unique"] =
            static_cast<double>(full.settledUnique);
    }

  private:
    verify::VerifyConfig
    makeConfig() const
    {
        // The seed draws the written values; the state-space shape
        // is that of the fixed config.
        std::uint64_t v[4];
        for (std::uint64_t k = 0; k < 4; ++k)
            v[k] = (k + 1) * 1000000 + mix(opt.seed, k) % 1000000;
        verify::VerifyConfig c;
        c.geometry = cache::Geometry{1, 1, 1};
        c.mode = cache::Mode::DistributedWrite;
        c.name = "B-3cpu";
        c.nodes = 4;
        c.program = {
            {{0, 0, true, v[0]}, {0, 0, true, v[1]}},
            {{1, 0, false, 0}, {1, 1, false, 0},
             {1, 0, false, 0}, {1, 1, false, 0}},
            {{2, 1, true, v[2]}, {2, 1, true, v[3]}},
        };
        c.opt.maxStates = 1u << 20;
        return c;
    }

    /** Per-cpu programs interleaved round-robin. */
    static Refs
    flatten(const verify::VerifyConfig &c)
    {
        Refs out;
        for (std::size_t k = 0;; ++k) {
            bool any = false;
            for (const auto &cpu : c.program) {
                if (k < cpu.size()) {
                    out.push_back(cpu[k]);
                    any = true;
                }
            }
            if (!any)
                return out;
        }
    }

    proto::ConcurrentParams
    params() const
    {
        proto::ConcurrentParams cp = plainParams(cfg.geometry);
        cp.defaultMode = cfg.mode;
        return cp;
    }

    verify::VerifyConfig cfg;
    Shape shape;
    std::optional<std::pair<verify::ExploreResult, verify::ExploreResult>>
        first;
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt, Report &rep, Gate &gate)
{
    if (opt.workload == "paper-grid")
        return std::make_unique<PaperGrid>(opt, rep, gate);
    if (opt.workload == "shared-concurrent")
        return std::make_unique<SharedConcurrent>(opt, rep, gate);
    if (opt.workload == "evict-hardened")
        return std::make_unique<EvictHardened>(opt, rep, gate);
    if (opt.workload == "verify-audit")
        return std::make_unique<VerifyAudit>(opt, rep, gate);
    throw std::invalid_argument("unknown workload: " + opt.workload);
}

// ------------------------------------------------------------------
// Traced run: the layer ledger
// ------------------------------------------------------------------

/**
 * Drives every layer below the workload through its public calls on
 * the workload's own inputs, with spans around each call (or each
 * tight loop of calls), and accumulates the counts the per-layer
 * ratios need.
 */
class Ledger
{
  public:
    Ledger(Gate &gate, SpanLog &spans) : gate(gate), spans(spans) {}

    /** @return ops (references) of inputs that failed a check. */
    std::uint64_t
    add(const LedgerInput &given)
    {
        bool ok = true;
        Refs refs;
        {
            ScopedSpan s(&spans, "workload.gen");
            refs = materialise(*given.make());
        }
        // Compare with the set-up's copy, or, where the measured
        // points generate their own, with a second generation.
        ok &= gate.check(
            sameRefs(refs, given.refs ? *given.refs
                                      : materialise(*given.make())),
            given.label, "repeatable-inputs");
        LedgerInput in = given;
        in.refs = &refs;
        genRefs += refs.size();

        for (EngineKind e : kAtomic)
            ok &= runAtomic(e, in);
        ok &= callByCall(in);
        for (EngineKind e : kAtomic) {
            const Recorded rec = recordEngine(e, in.shape, *in.refs);
            const std::string point =
                in.label + ",engine=" + core::engineKindName(e);
            ok &= checkReplayIdentity(gate, point, in.shape, rec, &spans,
                                      omegaMsgs);
            for (const OmegaPass &p : kSchemePasses)
                omegaPass(in.shape.ports, rec.msgs, p, &spans,
                          omegaMsgs[p.name]);
            if (e == EngineKind::TwoModeAdaptive)
                ok &= timedReplay(in, rec.msgs);
        }
        ok &= concurrent(in);
        return ok ? 0 : in.refs->size();
    }

    /** Turn the accumulated counts and span totals into metrics. */
    void
    finish(Layer &out) const
    {
        const auto totals = spans.totals();
        auto ns = [&totals](const std::string &name) {
            const auto it = totals.find(name);
            return it == totals.end() ? 0.0 : it->second.totalNs;
        };
        out["workload.gen_ns_per_ref"] =
            ratio(ns("workload.gen"), static_cast<double>(genRefs));

        double engineNs = 0;
        for (EngineKind e : kAtomic) {
            const std::string base =
                std::string("proto.") + core::engineKindName(e);
            const EngineAcc &a = engines.at(core::engineKindName(e));
            const double refs = static_cast<double>(a.refs);
            engineNs += ns(base + ".run");
            out[base + ".ns_per_ref"] = ratio(ns(base + ".run"), refs);
            out[base + ".bits_per_ref"] =
                ratio(static_cast<double>(a.bits), refs);
            out[base + ".msgs_per_ref"] =
                ratio(static_cast<double>(a.msgs), refs);
        }

        out["proto.twomode.local_ns_per_ref"] =
            ratio(tm.localNs, static_cast<double>(tm.local));
        out["proto.twomode.remote_ns_per_ref"] =
            ratio(tm.remoteNs, static_cast<double>(tm.remote));
        const double tmRefs = static_cast<double>(tm.local + tm.remote);
        out["proto.twomode.ownership_transfers_per_ref"] =
            ratio(static_cast<double>(tm.ctrs.ownershipTransfers), tmRefs);
        out["proto.twomode.replacements_per_ref"] =
            ratio(static_cast<double>(tm.ctrs.replacements), tmRefs);
        out["proto.twomode.dw_updates_per_ref"] =
            ratio(static_cast<double>(tm.ctrs.dwUpdates), tmRefs);
        out["proto.twomode.invalidations_per_ref"] =
            ratio(static_cast<double>(tm.ctrs.invalidations), tmRefs);
        out["proto.twomode.mode_switches_per_ref"] =
            ratio(static_cast<double>(tm.ctrs.modeSwitches), tmRefs);
        out["cache.twomode.read_hit_ratio"] =
            ratio(static_cast<double>(tm.ctrs.readHits),
                  static_cast<double>(tm.ctrs.reads));

        for (const char *p : {"unicast", "scheme1", "scheme2", "scheme3",
                              "combined"}) {
            const std::string base = std::string("net.omega.") + p;
            const auto it = omegaMsgs.find(p);
            const double n = it == omegaMsgs.end()
                ? 0.0 : static_cast<double>(it->second);
            out[base + ".ns_per_msg"] = ratio(ns(base), n);
            out[base + ".msgs"] = n;
        }
        out["net.omega.share_of_proto"] = ratio(
            ns("net.omega.unicast") + ns("net.omega.recorded"), engineNs);

        const double deliveries = static_cast<double>(timed.deliveries);
        out["net.timed.ns_per_delivery"] =
            ratio(ns("net.timed.send"), deliveries);
        out["net.timed.allocs_per_delivery"] =
            ratio(static_cast<double>(timed.sendAllocs), deliveries);
        out["sim.eventq.ns_per_event"] =
            ratio(ns("sim.eventq.run"), static_cast<double>(timed.events));

        const double refs = static_cast<double>(conc.refs);
        const double events = static_cast<double>(conc.events);
        const proto::ConcurrentCounters &c = conc.ctrs;
        const std::string pc = "proto.concurrent.";
        out[pc + "ns_per_event"] = ratio(ns(pc + "run"), events);
        out[pc + "events_per_ref"] = ratio(events, refs);
        out[pc + "allocs_per_event"] =
            ratio(static_cast<double>(conc.allocsRun), events);
        out[pc + "msgs_per_ref"] =
            ratio(static_cast<double>(conc.msgs), refs);
        out[pc + "read_hit_ratio"] =
            ratio(static_cast<double>(c.readHits),
                  static_cast<double>(c.reads));
        const std::pair<const char *, std::uint64_t> perRef[] = {
            {"home_queued", c.homeQueued},
            {"pointer_nacks", c.pointerNacks},
            {"evictions", c.evictions},
            {"handoffs", c.handoffs},
            {"ownership_transfers", c.ownershipTransfers},
            {"timeouts", c.timeouts},
            {"retries", c.retries},
            {"stale_replies", c.staleReplies},
            {"dup_requests", c.dupRequests},
        };
        for (const auto &[name, v] : perRef)
            out[pc + name + "_per_ref"] =
                ratio(static_cast<double>(v), refs);
        out["sim.fault.drops_per_ref"] =
            ratio(static_cast<double>(conc.drops), refs);
        out["sim.fault.dups_per_ref"] =
            ratio(static_cast<double>(conc.dups), refs);
        latencyFigures(conc.lat, out);
        out["sim.makespan_ticks"] =
            ratio(static_cast<double>(conc.makespan),
                  static_cast<double>(conc.runs));
        out["sim.observe.overhead"] = ratio(observe.onNs, observe.offNs);
        out["sim.metrics.windows"] = static_cast<double>(observe.windows);
    }

  private:
    bool
    runAtomic(EngineKind e, const LedgerInput &in)
    {
        auto rig = makeRig(e, in.shape);
        VectorStream st(*in.refs);
        proto::RunResult r;
        {
            ScopedSpan s(&spans, std::string("proto.") +
                                     core::engineKindName(e) + ".run");
            r = rig->run(st);
        }
        EngineAcc &a = engines[core::engineKindName(e)];
        a.refs += r.refs;
        a.bits += r.networkBits;
        a.msgs += r.messages;
        return gate.check(r.valueErrors == 0 && r.refs == in.refs->size(),
                          in.label + ",engine=" + core::engineKindName(e),
                          "golden-values");
    }

    /** The adaptive two-mode system driven one read()/write() at a
     *  time, as System::run drives it, split local vs remote. */
    bool
    callByCall(const LedgerInput &in)
    {
        TwoModeRig rig(in.shape, core::PolicyKind::Adaptive);
        core::System &sys = rig.system();
        proto::StenstromProtocol &p = sys.protocol();
        {
            ScopedSpan s(&spans, "proto.twomode.calls");
            for (const MemRef &ref : *in.refs) {
                const std::uint64_t m0 = p.messageCounters().totalCount();
                const std::uint64_t t0 = nowNs();
                if (ref.isWrite)
                    p.write(ref.cpu, ref.addr, ref.value);
                else
                    p.read(ref.cpu, ref.addr);
                sys.policy().afterRef(p, ref);
                const double dt = static_cast<double>(nowNs() - t0);
                if (p.messageCounters().totalCount() == m0) {
                    tm.localNs += dt;
                    ++tm.local;
                } else {
                    tm.remoteNs += dt;
                    ++tm.remote;
                }
            }
        }
        const proto::StenstromCounters &c = p.counters();
        tm.ctrs.ownershipTransfers += c.ownershipTransfers;
        tm.ctrs.replacements += c.replacements;
        tm.ctrs.dwUpdates += c.dwUpdates;
        tm.ctrs.invalidations += c.invalidations;
        tm.ctrs.modeSwitches += c.modeSwitches;
        tm.ctrs.readHits += c.readHits;
        tm.ctrs.reads += c.reads;
        const auto errs = proto::checkInvariants(p);
        bool ok = gate.check(errs.empty(), in.label + ",engine=adaptive",
                             "end-state-invariants",
                             errs.empty() ? "" : errs.front());
        ok &= gate.check(p.valueErrors() == 0,
                         in.label + ",engine=adaptive", "golden-values");
        return ok;
    }

    /** Recorded messages through TimedNetwork::send* and
     *  EventQueue::run, injected in batches. */
    bool
    timedReplay(const LedgerInput &in,
                const std::vector<proto::SentMessage> &msgs)
    {
        constexpr std::size_t kBatch = 64;
        EventQueue eq;
        net::OmegaNetwork n(in.shape.ports);
        net::TimedNetwork tn(n, eq);
        struct Sink
        {
            std::uint64_t delivered = 0;
        } sink;
        const net::DeliveryFn fn(
            [s = &sink](NodeId, Tick) { ++s->delivered; });
        std::uint64_t scheduled = 0;
        for (std::size_t i = 0; i < msgs.size(); i += kBatch) {
            const std::size_t end = std::min(msgs.size(), i + kBatch);
            {
                ScopedSpan s(&spans, "net.timed.send");
                const std::uint64_t a0 = allocCount();
                for (std::size_t k = i; k < end; ++k) {
                    const proto::SentMessage &m = msgs[k];
                    if (isUnicast(m)) {
                        if (m.src == m.dests[0])
                            continue;
                        tn.sendUnicast(m.src, m.dests[0], m.bits, fn);
                    } else {
                        tn.sendMulticast(m.scheme, m.src, m.dests, m.bits,
                                         fn);
                    }
                    scheduled += tn.lastDeliveries();
                }
                timed.sendAllocs += allocCount() - a0;
            }
            ScopedSpan s(&spans, "sim.eventq.run");
            eq.run();
        }
        timed.deliveries += scheduled;
        timed.events += eq.executedEvents();
        return gate.check(sink.delivered == scheduled, in.label,
                          "timed-deliveries",
                          std::to_string(sink.delivered) + " of " +
                              std::to_string(scheduled));
    }

    /** The message-level engine with the input's own parameters,
     *  then again with observability toggled. */
    bool
    concurrent(const LedgerInput &in)
    {
        const ConcurrentOutcome o = runConcurrent(
            in.shape, in.params, *in.refs, &spans, "proto.concurrent.run");
        bool ok = checkConcurrent(gate, in.label, o);
        conc.refs += o.run.refs;
        conc.events += o.events;
        conc.allocsRun += o.allocsRun;
        conc.msgs += o.msgs;
        conc.drops += o.drops;
        conc.dups += o.dups;
        conc.makespan += o.run.makespan;
        ++conc.runs;
        conc.lat.merge(o.lat);
        const proto::ConcurrentCounters &c = o.ctrs;
        conc.ctrs.reads += c.reads;
        conc.ctrs.readHits += c.readHits;
        conc.ctrs.homeQueued += c.homeQueued;
        conc.ctrs.pointerNacks += c.pointerNacks;
        conc.ctrs.evictions += c.evictions;
        conc.ctrs.handoffs += c.handoffs;
        conc.ctrs.ownershipTransfers += c.ownershipTransfers;
        conc.ctrs.timeouts += c.timeouts;
        conc.ctrs.retries += c.retries;
        conc.ctrs.staleReplies += c.staleReplies;
        conc.ctrs.dupRequests += c.dupRequests;

        proto::ConcurrentParams toggled = in.params;
        const bool wasOn = observed(in.params);
        setObservability(toggled, !wasOn);
        const ConcurrentOutcome t =
            runConcurrent(in.shape, toggled, *in.refs, &spans,
                          "proto.concurrent.observe-toggled");
        ok &= checkConcurrent(gate, in.label + ",observe-toggled", t);
        const ConcurrentOutcome &on = wasOn ? o : t;
        const ConcurrentOutcome &off = wasOn ? t : o;
        observe.onNs += static_cast<double>(on.runNs);
        observe.offNs += static_cast<double>(off.runNs);
        observe.windows += on.windows;
        ok &= gate.check(on.run.networkBits == off.run.networkBits &&
                             on.run.makespan == off.run.makespan,
                         in.label, "observation-is-pure");
        return ok;
    }

    struct EngineAcc
    {
        std::uint64_t refs = 0, bits = 0, msgs = 0;
    };
    struct TwoModeAcc
    {
        double localNs = 0, remoteNs = 0;
        std::uint64_t local = 0, remote = 0;
        proto::StenstromCounters ctrs;
    };
    struct TimedAcc
    {
        std::uint64_t deliveries = 0, events = 0, sendAllocs = 0;
    };
    struct ConcurrentAcc
    {
        std::uint64_t refs = 0, events = 0, allocsRun = 0, msgs = 0;
        std::uint64_t drops = 0, dups = 0, makespan = 0, runs = 0;
        proto::ConcurrentCounters ctrs;
        core::OpLatencies lat;
    };
    struct ObserveAcc
    {
        double onNs = 0, offNs = 0;
        std::uint64_t windows = 0;
    };

    Gate &gate;
    SpanLog &spans;
    std::uint64_t genRefs = 0;
    std::map<std::string, EngineAcc> engines;
    TwoModeAcc tm;
    std::map<std::string, std::uint64_t> omegaMsgs;
    TimedAcc timed;
    ConcurrentAcc conc;
    ObserveAcc observe;
};

// ------------------------------------------------------------------
// Measurement loops
// ------------------------------------------------------------------

struct LoopResult
{
    std::uint64_t ops = 0, allocs = 0, ns = 0, failedOps = 0;
    std::uint64_t wallNs = 0;
    unsigned rounds = 0;
    /** Peak RSS after set-up and the first round. Later rounds only
     *  repeat it, and interleaved set-up samples would tie the
     *  figure to how many rounds fit in the run. */
    double firstRoundRssMb = 0;
    /** @{ Measured runs only: each point's calibrated time in
     *  reference ns, one sample per round; set-up samples in raw CPU
     *  seconds and in reference ns; the CPU ns of one pass in every
     *  calibration block. */
    std::vector<std::vector<double>> pointRefNs;
    std::vector<double> setupS, setupRefNs, passNs;
    /** @} */
};

/**
 * Times measured work beside calibration passes. A block of passes
 * runs first and again whenever 20 ms of measured CPU time has
 * gone by, and on flush(). Each piece of work is scaled by the mean
 * pass time of the two blocks that bracket it (referenceNs). A
 * block is two passes, or longer after long work (2 % of it, up to
 * 64 passes), so that the pass time of a block is not noisier than
 * the work it scales.
 */
class Calibrator
{
  public:
    explicit Calibrator(std::vector<double> &passNs) : passNs(passNs)
    {
        block(2);
    }

    /** @p ns of measured work; its reference ns are appended to
     *  @p dest once the next block has run. */
    void
    add(double ns, std::vector<double> &dest)
    {
        pending.push_back({ns, &dest});
        sinceNs += ns;
        if (sinceNs >= 20e6)
            flush();
    }

    void
    flush()
    {
        if (pending.empty())
            return;
        const double before = last;
        const double reps = std::clamp(sinceNs * 0.02 / last, 2.0, 64.0);
        block(static_cast<unsigned>(reps));
        const double pass = (before + last) / 2;
        for (const auto &[ns, dest] : pending)
            dest->push_back(referenceNs(ns, pass));
        pending.clear();
        sinceNs = 0;
    }

  private:
    void
    block(unsigned reps)
    {
        last = static_cast<double>(calibrationNs(reps)) / reps;
        passNs.push_back(last);
    }

    std::vector<double> &passNs;
    std::vector<std::pair<double, std::vector<double> *>> pending;
    double sinceNs = 0;
    double last = 0;
};

/**
 * CPU seconds of one set-up: set-ups repeat until 2 ms have passed,
 * so sub-millisecond ones are timed over many repetitions.
 */
double
setupSample(Workload &w)
{
    const std::uint64_t t0 = cpuNs();
    unsigned n = 0;
    do {
        w.setup();
        ++n;
    } while (cpuNs() - t0 < 2000000);
    return static_cast<double>(cpuNs() - t0) / 1e9 / n;
}

/**
 * Run whole rounds of every unit until @p seconds have passed (at
 * least one round). Every round repeats the first one's inputs, so
 * its simulated results must repeat exactly. With @p measure, units
 * are timed beside calibration passes and set-up samples follow
 * every round, so set-up is timed across the whole run like the
 * rounds are; a shared host's speed drifts over seconds.
 */
LoopResult
timedLoop(Workload &w, double seconds, SpanLog *spans, Gate &gate,
          std::vector<std::vector<double>> &firstFp, bool measure = false)
{
    LoopResult lr;
    lr.pointRefNs.resize(w.units());
    firstFp.resize(w.units());
    std::optional<Calibrator> cal;
    if (measure)
        cal.emplace(lr.passNs);
    const std::uint64_t start = nowNs();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    do {
        ScopedSpan round(spans, "round");
        for (std::size_t i = 0; i < w.units(); ++i) {
            const UnitResult u = w.runUnit(i, spans);
            if (cal)
                cal->add(static_cast<double>(u.ns), lr.pointRefNs[i]);
            bool ok = u.ok;
            if (firstFp[i].empty())
                firstFp[i] = u.fingerprint;
            else
                ok &= gate.check(u.fingerprint == firstFp[i],
                                 w.unitLabel(i), "repeatable-results");
            lr.ops += u.ops;
            lr.allocs += u.allocs;
            lr.ns += u.ns;
            if (!ok)
                lr.failedOps += u.ops;
        }
        if (++lr.rounds == 1)
            lr.firstRoundRssMb = peakRssMb();
        if (cal) {
            // At least 20 ms of set-up samples per round, so short
            // set-ups get many samples without slowing long ones.
            for (const std::uint64_t t0 = cpuNs(); cpuNs() - t0 < 20000000;) {
                lr.setupS.push_back(setupSample(w));
                cal->add(lr.setupS.back() * 1e9, lr.setupRefNs);
            }
            cal->flush();
        }
    } while (nowNs() - start < budget);
    lr.wallNs = nowNs() - start;
    return lr;
}

} // anonymous namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper-grid", "shared-concurrent", "evict-hardened",
        "verify-audit"};
    return names;
}

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"ops_per_s", "1/s"},         {"setup_s", "s"},
        {"peak_rss_mb", "MB"},        {"allocs_per_op", "count"},
        {"point_ms_p50", "ms"},       {"point_ms_p90", "ms"},
        {"sim_bits_per_ref", "bits"}, {"sim_msgs_per_ref", "count"},
    };
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> m = [] {
        std::vector<MetricSpec> v;
        for (EngineKind e : kAtomic) {
            const std::string b =
                std::string("proto.") + core::engineKindName(e);
            v.push_back({b + ".ns_per_ref", "ns"});
            v.push_back({b + ".bits_per_ref", "bits"});
            v.push_back({b + ".msgs_per_ref", "count"});
        }
        v.push_back({"proto.twomode.local_ns_per_ref", "ns"});
        v.push_back({"proto.twomode.remote_ns_per_ref", "ns"});
        for (const char *c : {"ownership_transfers", "replacements",
                              "dw_updates", "invalidations",
                              "mode_switches"})
            v.push_back({std::string("proto.twomode.") + c + "_per_ref",
                         "count"});
        v.push_back({"cache.twomode.read_hit_ratio", "ratio"});
        for (const char *s : {"unicast", "scheme1", "scheme2", "scheme3",
                              "combined"}) {
            v.push_back({std::string("net.omega.") + s + ".ns_per_msg",
                         "ns"});
            v.push_back({std::string("net.omega.") + s + ".msgs",
                         "count"});
        }
        v.push_back({"net.omega.share_of_proto", "ratio"});
        v.push_back({"net.timed.ns_per_delivery", "ns"});
        v.push_back({"net.timed.allocs_per_delivery", "count"});
        v.push_back({"sim.eventq.ns_per_event", "ns"});
        v.push_back({"proto.concurrent.ns_per_event", "ns"});
        v.push_back({"proto.concurrent.events_per_ref", "count"});
        v.push_back({"proto.concurrent.allocs_per_event", "count"});
        v.push_back({"proto.concurrent.msgs_per_ref", "count"});
        v.push_back({"proto.concurrent.read_hit_ratio", "ratio"});
        for (const char *c : {"home_queued", "pointer_nacks", "evictions",
                              "handoffs", "ownership_transfers",
                              "timeouts", "retries", "stale_replies",
                              "dup_requests"})
            v.push_back({std::string("proto.concurrent.") + c + "_per_ref",
                         "count"});
        v.push_back({"sim.fault.drops_per_ref", "count"});
        v.push_back({"sim.fault.dups_per_ref", "count"});
        for (std::size_t c = 0;
             c < static_cast<std::size_t>(OpClass::NumClasses); ++c) {
            const std::string b = std::string("sim.lat.") +
                opClassName(static_cast<OpClass>(c));
            v.push_back({b + ".p50", "ticks"});
            v.push_back({b + ".p99", "ticks"});
        }
        v.push_back({"sim.read_lat_p50", "ticks"});
        v.push_back({"sim.read_lat_p99", "ticks"});
        v.push_back({"sim.write_lat_p99", "ticks"});
        v.push_back({"sim.makespan_ticks", "ticks"});
        v.push_back({"sim.observe.overhead", "ratio"});
        v.push_back({"sim.metrics.windows", "count"});
        v.push_back({"workload.gen_ns_per_ref", "ns"});
        for (const char *s : {"full", "por"}) {
            v.push_back({std::string("verify.") + s + ".states", "count"});
            v.push_back({std::string("verify.") + s + ".edges", "count"});
            v.push_back({std::string("verify.") + s + ".states_per_s",
                         "1/s"});
        }
        v.push_back({"verify.full.revisit_ratio", "ratio"});
        v.push_back({"verify.por.reduction", "ratio"});
        v.push_back({"verify.settled_unique", "count"});
        v.push_back({"trace.overhead", "ratio"});
        return v;
    }();
    return m;
}

Report
runWorkload(const Options &opt, SpanLog &spans)
{
    Report rep;
    rep.workload = opt.workload;
    rep.seed = opt.seed;
    rep.trace = opt.trace;
    Gate gate(rep);
    std::unique_ptr<Workload> w = makeWorkload(opt, rep, gate);

    const double firstSetupS = setupSample(*w);
    std::vector<std::vector<double>> fp;

    if (!opt.trace) {
        const LoopResult lr =
            timedLoop(*w, opt.seconds, nullptr, gate, fp, true);
        const SimTotals sim = w->simMetrics();
        const std::uint64_t finalFailed = w->finalChecks();
        rep.attempted = lr.ops;
        rep.failed = std::min(lr.ops, lr.failedOps + finalFailed);

        // A point's simulated work is the same in every round, so its
        // round-to-round variation is the host's alone. On a shared
        // host a thread's speed moves by half or more as other tenants
        // come and go, for seconds to minutes at a time. A point's
        // CPU time scaled by the calibration passes beside it moves
        // far less (BENCHMARK.md); its median over the rounds is the
        // point's cost. Rates, percentiles and set-up time use those
        // costs.
        std::vector<double> pointMs;
        double roundS = 0;
        for (const std::vector<double> &refNs : lr.pointRefNs) {
            pointMs.push_back(median(refNs) / 1e6);
            roundS += median(refNs) / 1e9;
        }
        std::vector<double> sorted = pointMs;
        std::sort(sorted.begin(), sorted.end());
        const double ops = static_cast<double>(lr.ops);
        const double roundOps = ops / lr.rounds;
        rep.add("ops_per_s", ratio(roundOps, roundS), "1/s");
        rep.add("setup_s", median(lr.setupRefNs) / 1e9, "s");
        rep.add("peak_rss_mb", lr.firstRoundRssMb, "MB");
        rep.add("allocs_per_op", ratio(static_cast<double>(lr.allocs), ops),
                "count");
        rep.add("point_ms_p50", percentile(sorted, 50), "ms");
        rep.add("point_ms_p90", percentile(sorted, 90), "ms");
        rep.add("sim_bits_per_ref", sim.bitsPerRef, "bits");
        rep.add("sim_msgs_per_ref", sim.msgsPerRef, "count");
        rep.deterministic["sim_bits_per_ref"] = sim.bitsPerRef;
        rep.deterministic["sim_msgs_per_ref"] = sim.msgsPerRef;

        const Tail tail = tailPercentile(pointMs);
        rep.note("failed_op_ratio",
                 ratio(static_cast<double>(rep.failed), ops), "ratio");
        rep.note("points", static_cast<double>(tail.count), "count");
        rep.note("point_ms_p90_samples_beyond",
                 static_cast<double>(samplesBeyond(tail.count, 90)),
                 "count");
        rep.note("point_ms_tail_percentile", tail.p, "%");
        rep.note("point_ms_tail", tail.value, "ms");
        rep.note("rounds", lr.rounds, "count");
        // Raw CPU-time figures, in host seconds: what the calibrated
        // ones replace, and the host's speed over the run.
        rep.note("ops_per_s_all_rounds",
                 ratio(ops, static_cast<double>(lr.ns) / 1e9), "1/s");
        rep.note("setup_s_cpu_median", median(lr.setupS), "s");
        rep.note("setup_samples", static_cast<double>(lr.setupS.size()),
                 "count");
        rep.note("calibration_pass_ms_median", median(lr.passNs) / 1e6,
                 "ms");
        rep.note("calibration_blocks", static_cast<double>(lr.passNs.size()),
                 "count");
        return rep;
    }

    // Traced run: rounds alternate between untraced and with spans
    // around the units, for the tracing overhead; then the layer
    // ledger.
    std::uint64_t attempted = 0, failedOps = 0;
    std::vector<double> overheads;
    const std::uint64_t start = nowNs();
    do {
        const LoopResult plain = timedLoop(*w, 0, nullptr, gate, fp);
        const LoopResult traced = timedLoop(*w, 0, &spans, gate, fp);
        overheads.push_back(ratio(static_cast<double>(traced.wallNs),
                                  static_cast<double>(plain.wallNs)));
        attempted += plain.ops + traced.ops;
        failedOps += plain.failedOps + traced.failedOps;
    } while (static_cast<double>(nowNs() - start) < opt.seconds * 1e9);
    const SimTotals sim = w->simMetrics();
    rep.deterministic["sim_bits_per_ref"] = sim.bitsPerRef;
    rep.deterministic["sim_msgs_per_ref"] = sim.msgsPerRef;

    Layer layer;
    Ledger ledger(gate, spans);
    std::uint64_t ledgerFailed = 0;
    {
        ScopedSpan s(&spans, "ledger");
        for (const LedgerInput &in : w->ledgerInputs())
            ledgerFailed += ledger.add(in);
    }
    ledger.finish(layer);
    w->layerExtras(spans, layer);
    layer["trace.overhead"] = median(overheads);

    rep.attempted = attempted;
    rep.failed = std::min(attempted, failedOps + ledgerFailed);
    for (const MetricSpec &m : perLayerMetrics()) {
        const auto it = layer.find(m.name);
        if (it == layer.end()) {
            rep.unavailable[m.name] = m.name.rfind("verify.", 0) == 0
                ? "this workload runs no model checker; see verify-audit"
                : "not produced by this workload";
            rep.add(m.name, 0, m.unit);
        } else {
            rep.add(m.name, it->second, m.unit);
        }
        if (m.unit != "ns" && m.unit != "1/s" && m.name != "trace.overhead"
            && m.name != "net.omega.share_of_proto"
            && m.name != "sim.observe.overhead")
            rep.deterministic[m.name] = rep.metrics.back().value;
    }
    rep.note("setup_s", firstSetupS, "s");
    rep.note("traced_spans", static_cast<double>(spans.spans().size()),
             "count");
    return rep;
}

} // namespace mscpbench
