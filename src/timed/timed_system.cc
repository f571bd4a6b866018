#include "timed_system.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::timed
{

/**
 * Store-and-forward replay of message traces with per-link busy
 * times. Mirrors TimedNetwork's model but starts each tree at an
 * arbitrary virtual time and never touches the functional traffic
 * statistics (the protocol already committed them).
 */
struct TimedSystem::Replayer
{
    Replayer(net::OmegaNetwork &network, const TimedConfig &cfg)
        : net(network), cfg(cfg),
          linkFree(static_cast<std::size_t>(
                       network.topology().numLinkLevels()) *
                   network.numPorts(), 0)
    {}

    Tick
    serialization(Bits bits) const
    {
        return (bits + cfg.linkWidthBits - 1) / cfg.linkWidthBits;
    }

    /** Replay one message tree; @return last delivery tick. */
    Tick
    replay(const std::vector<net::Traversal> &trace, Tick start)
    {
        std::vector<Tick> done(trace.size(), 0);
        Tick last = start;
        unsigned m = net.numStages();
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const auto &t = trace[i];
            Tick ready = t.parent < 0
                ? start
                : done[static_cast<std::size_t>(t.parent)];
            Tick &free = linkFree[
                static_cast<std::size_t>(t.level) *
                net.numPorts() + t.line];
            Tick depart = std::max(ready, free);
            Tick ser = serialization(t.bits);
            free = depart + ser;
            done[i] = depart + ser + cfg.hopLatency;
            busyTicks += ser;
            if (t.level == m)
                last = std::max(last, done[i]);
        }
        return last;
    }

    /** Completion time of one recorded protocol message. */
    Tick
    messageDone(const proto::SentMessage &msg, Tick start)
    {
        if (msg.dests.size() == 1 && msg.dests[0] == msg.src)
            return start + cfg.localLatency;

        std::vector<net::Traversal> trace;
        if (msg.dests.size() == 1) {
            trace = net.traceUnicast(msg.src, msg.dests[0],
                                     msg.bits);
        } else {
            switch (msg.scheme) {
              case net::Scheme::Unicasts:
                trace = net.traceScheme1(msg.src, msg.dests,
                                         msg.bits);
                break;
              case net::Scheme::VectorRouting: {
                DynamicBitset v(net.numPorts());
                for (auto d : msg.dests)
                    v.set(d);
                trace = net.traceScheme2(msg.src, v, msg.bits);
                break;
              }
              case net::Scheme::BroadcastTag:
                trace = net.traceScheme3(
                    msg.src, net::Subcube::enclosing(msg.dests),
                    msg.bits);
                break;
              case net::Scheme::Combined: {
                auto costs = net.evaluateAllSchemes(
                    msg.src, msg.dests, msg.bits);
                std::size_t best = 0;
                for (std::size_t i = 1; i < costs.size(); ++i)
                    if (costs[i].totalBits < costs[best].totalBits)
                        best = i;
                proto::SentMessage fixed = msg;
                fixed.scheme = costs[best].used;
                return messageDone(fixed, start);
              }
            }
        }
        return replay(trace, start);
    }

    net::OmegaNetwork &net;
    const TimedConfig &cfg;
    std::vector<Tick> linkFree;
    std::uint64_t busyTicks = 0;
};

TimedSystem::TimedSystem(const core::SystemConfig &sys_cfg,
                         const TimedConfig &timed_cfg)
    : sysCfg(sys_cfg), cfg(timed_cfg),
      sys(std::make_unique<core::System>(sys_cfg))
{
    fatal_if(timed_cfg.linkWidthBits == 0,
             "link width must be positive");
}

TimedSystem::~TimedSystem() = default;

TimedRunResult
TimedSystem::run(workload::ReferenceStream &stream)
{
    auto &proto = sys->protocol();
    auto &net = sys->network();

    // Split the global reference string into per-cpu program-order
    // queues.
    std::vector<std::queue<workload::MemRef>> perCpu(
        sysCfg.numPorts);
    workload::MemRef ref;
    std::uint64_t total_refs = 0;
    while (stream.next(ref)) {
        panic_if(ref.cpu >= sysCfg.numPorts,
                 "reference for cpu %u on an %u-port system",
                 ref.cpu, sysCfg.numPorts);
        perCpu[ref.cpu].push(ref);
        ++total_refs;
    }

    Replayer replayer(net, cfg);
    std::vector<proto::SentMessage> msgLog;
    proto.setMessageRecorder([&](const proto::SentMessage &m) {
        msgLog.push_back(m);
    });

    // Min-heap of (readyTime, cpu): execute the earliest-ready
    // processor's next reference.
    using HeapEntry = std::pair<Tick, NodeId>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<>> heap;
    for (NodeId c = 0; c < sysCfg.numPorts; ++c)
        if (!perCpu[c].empty())
            heap.push({0, c});

    TimedRunResult res;
    Bits start_bits = net.linkStats().totalBits();
    std::uint64_t start_errors = proto.valueErrors();
    double read_lat_sum = 0, write_lat_sum = 0;
    std::uint64_t reads = 0, writes = 0;
    std::vector<Tick> zero_load(sysCfg.numPorts, 0);

    while (!heap.empty()) {
        auto [ready, cpu] = heap.top();
        heap.pop();
        workload::MemRef r = perCpu[cpu].front();
        perCpu[cpu].pop();

        msgLog.clear();
        if (r.isWrite)
            proto.write(r.cpu, r.addr, r.value);
        else
            proto.read(r.cpu, r.addr);
        sys->policy().afterRef(proto, r);

        // Causally chain the transaction's messages; each departs
        // when the previous has fully arrived.
        Tick t = ready + cfg.hitLatency;
        Tick zl = cfg.hitLatency;
        for (const auto &m : msgLog) {
            t = replayer.messageDone(m, t);
            zl += (m.dests.size() == 1 && m.dests[0] == m.src)
                ? cfg.localLatency
                : (replayer.serialization(m.bits) +
                   cfg.hopLatency) * net.hopCount();
        }

        Tick latency = t - ready;
        if (r.isWrite) {
            res.writeLatency.sample(latency);
            write_lat_sum += static_cast<double>(latency);
            ++writes;
        } else {
            res.readLatency.sample(latency);
            read_lat_sum += static_cast<double>(latency);
            ++reads;
        }
        if (msgLog.empty())
            ++res.localRefs;
        else
            ++res.remoteRefs;
        zero_load[cpu] += zl;

        res.makespan = std::max(res.makespan, t);
        if (!perCpu[cpu].empty())
            heap.push({t + cfg.thinkTime, cpu});
    }

    proto.setMessageRecorder(nullptr);

    res.refs = total_refs;
    res.valueErrors = proto.valueErrors() - start_errors;
    res.networkBits = net.linkStats().totalBits() - start_bits;
    res.avgReadLatency = reads
        ? read_lat_sum / static_cast<double>(reads) : 0;
    res.avgWriteLatency = writes
        ? write_lat_sum / static_cast<double>(writes) : 0;
    res.zeroLoadCriticalPath = *std::max_element(zero_load.begin(),
                                                 zero_load.end());

    // Utilization: busy link-ticks over total link-tick capacity.
    double links = static_cast<double>(
        net.topology().numLinkLevels()) * net.numPorts();
    if (res.makespan > 0) {
        res.linkUtilization =
            static_cast<double>(replayer.busyTicks) /
            (links * static_cast<double>(res.makespan));
    }
    return res;
}

} // namespace mscp::timed
