#include "concurrent.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mscp::proto
{

#ifdef MSCP_FAULT_SEAM
/**
 * Deliberate-bug seam for the model-checker test matrix: when set,
 * a DW-mode owner serving a read forward "forgets" to register the
 * reader in its present vector, so a later distributed write skips
 * that copy and the reader can observe a stale value. Only compiled
 * into test binaries that #define MSCP_FAULT_SEAM and #include this
 * translation unit; the production object never defines the macro
 * and is byte-identical to a build without the seam.
 */
bool g_faultSeam = false;
/**
 * Deliberate-livelock seam for the liveness checker: when set, an
 * owner NACKs every direct pointer-bypass read it could serve, and
 * the nacked requester does not advance its pointer-retry counter
 * -- so a reader holding a stale-but-correct owner hint ping-pongs
 * LoadReq/NackNotOwner forever without making progress. Every
 * message of the cycle is delivered (the cycle is weakly fair), so
 * this is a genuine livelock, not a starved schedule.
 */
bool g_livelockSeam = false;
#endif

using cache::Mode;
using cache::State;

ConcurrentProtocol::ConcurrentProtocol(net::OmegaNetwork &network,
                                       ConcurrentParams p)
    : params(p), net(network),
      timedNet(network, eq, p.linkWidthBits, p.hopLatency),
      injector(p.faultPlan, p.crashPlan), retryRng(p.jitterSeed),
      _tracer(p.traceCapacity), mx(registerMetrics()),
      msampler(mx, p.metricsWindow, p.metricsCapacity)
{
    params.geometry.check();
    // Self-gating: a disabled plan detaches and the delivery path
    // is byte-identical to a build without injection.
    timedNet.setFaultInjector(&injector);
    // Tracing is switched on explicitly or piggybacks on an armed
    // watchdog (so deadlock reports always carry history). The
    // queue and network tracers stay detached otherwise, keeping
    // their untraced paths to a single branch.
    if (traceCompiledIn() &&
        (params.traceEnabled || params.watchdogPeriod > 0)) {
        _tracer.setEnabled(true);
        // When the tracer rides along only as the watchdog's
        // history buffer, ring overwrite is its designed steady
        // state - don't warn about it.
        _tracer.setOverflowWarn(params.traceEnabled);
        eq.setTracer(&_tracer);
        timedNet.setTracer(&_tracer);
    }
    // Metrics follow the same attach discipline as the tracer: the
    // sampler and the network's heatmap hooks are only installed
    // while enabled, so a metrics-off run pays one branch per call
    // site and is byte-identical in results and output.
    if (metricsCompiledIn() && params.metricsEnabled) {
        mx.setEnabled(true);
        msampler.setProbe([this] { metricsProbe(); });
        msampler.arm();
        if (msampler.armed()) {
            eq.setMetricsSampler(&msampler);
            timedNet.setMetrics(&mx, mid.net);
        }
    }
    unsigned n = network.numPorts();
    cpus.reserve(n);
    homes.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        cpus.emplace_back(params.geometry, n);
        homes.emplace_back(static_cast<NodeId>(i),
                           params.geometry.blockWords);
    }
    deadNodes = DynamicBitset(n);
}

const MetricsRegistry &
ConcurrentProtocol::registerMetrics()
{
    const auto levels = net.topology().numLinkLevels();
    const auto ports = net.numPorts();
    mid.net.linkWait = mreg.grid("net.link_wait", levels, ports);
    mid.net.linkBusy = mreg.grid("net.link_busy", levels, ports);
    mid.net.fanout = mreg.histogram("net.fanout");
    mid.evqDepth = mreg.gauge("evq.depth");
    mid.evqTombstones = mreg.gauge("evq.tombstones");
    mid.refsOutstanding = mreg.gauge("proto.refs_outstanding");
    mid.refsDone = mreg.counter("proto.refs_done");
    mid.retries = mreg.counter("proto.retries");
    mid.timeouts = mreg.counter("proto.timeouts");
    mid.retryBackoff = mreg.histogram("proto.retry_backoff");
    mid.dirEntries = mreg.gauge("dir.entries");
    mid.busyBlocks = mreg.gauge("dir.busy_blocks");
    mid.homeOccupancy = mreg.histogram("dir.occupancy");
    mid.recoveringBlocks = mreg.gauge("recovery.blocks");
    mid.rebuilds = mreg.counter("recovery.rebuilds");
    mid.faultDropped = mreg.counter("fault.dropped");
    mid.faultDuplicated = mreg.counter("fault.duplicated");
    mid.faultDelayed = mreg.counter("fault.delayed");
    mid.crashMasked = mreg.counter("fault.crash_masked");
    return mreg;
}

void
ConcurrentProtocol::metricsProbe()
{
    mx.set(mid.evqDepth, eq.size());
    mx.set(mid.evqTombstones, eq.tombstoneSlots());
    mx.set(mid.refsOutstanding, refsOutstanding);
    mx.set(mid.refsDone, readsDone + writesDone);
    mx.set(mid.retries, ctrs.retries);
    mx.set(mid.timeouts, ctrs.timeouts);
    mx.set(mid.rebuilds, ctrs.rebuilds);
    std::uint64_t entries = 0, busy = 0, recovering = 0;
    for (const HomeState &h : homes) {
        entries += h.mem.blockStore().size();
        busy += h.busy.size();
        recovering += h.recovering.size();
        mx.sample(mid.homeOccupancy, h.busy.size());
    }
    mx.set(mid.dirEntries, entries);
    mx.set(mid.busyBlocks, busy);
    mx.set(mid.recoveringBlocks, recovering);
    const FaultCounters &fc = injector.counters();
    mx.set(mid.faultDropped, fc.totalDropped());
    mx.set(mid.faultDuplicated, fc.totalDuplicated());
    mx.set(mid.faultDelayed, fc.totalDelayed());
    mx.set(mid.crashMasked, fc.totalCrashMasked());
}

ConcurrentProtocol::~ConcurrentProtocol() = default;

cache::Entry *
ConcurrentProtocol::findEntry(NodeId cpu, BlockId blk)
{
    return cpus[cpu].array.find(blk);
}

const std::vector<NodeId> &
ConcurrentProtocol::othersPresent(const Entry &e, NodeId self)
{
    presentScratch.clear();
    const DynamicBitset &p = e.field.present;
    for (std::size_t i = p.findFirst(); i < p.size();
         i = p.findNext(i)) {
        if (i != self)
            presentScratch.push_back(static_cast<NodeId>(i));
    }
    return presentScratch;
}

void
ConcurrentProtocol::maybeExclusive(Entry &e, NodeId self)
{
    if (e.field.present.count() == 1 && e.field.present.test(self)) {
        e.field.state = cache::ownedState(
            cache::modeOf(e.field.state), true);
    }
}

FaultClass
ConcurrentProtocol::classOf(MsgType t)
{
    switch (t) {
      case MsgType::LoadReq:
      case MsgType::LoadOwnReq:
      case MsgType::OwnReq:
      case MsgType::EvictReq:
        return FaultClass::Request;
      case MsgType::LoadFwd:
      case MsgType::LoadOwnFwd:
      case MsgType::OwnFwd:
      case MsgType::PresentClear:
        return FaultClass::Forward;
      case MsgType::DataBlock:
      case MsgType::Datum:
      case MsgType::StateXfer:
      case MsgType::StateCopyXfer:
      case MsgType::EvictAck:
        return FaultClass::Reply;
      case MsgType::DwAck:
      case MsgType::InvalAck:
      case MsgType::OfferAck:
      case MsgType::OfferNack:
      case MsgType::PresentClearAck:
      case MsgType::NackNotOwner:
        return FaultClass::Ack;
      case MsgType::SuspectOwner:
      case MsgType::RecoveryPurge:
      case MsgType::RecoveryAck:
      case MsgType::RecoveryNack:
      case MsgType::DurableWrite:
        return FaultClass::Recovery;
      default:
        return FaultClass::Control;
    }
}

const char *
ConcurrentProtocol::phaseName(Phase p)
{
    switch (p) {
      case Phase::Idle: return "Idle";
      case Phase::WaitHome: return "WaitHome";
      case Phase::WaitPointer: return "WaitPointer";
      case Phase::WaitOwnXfer: return "WaitOwnXfer";
      case Phase::WaitDwAcks: return "WaitDwAcks";
      case Phase::WaitEvictAck: return "WaitEvictAck";
      case Phase::WaitOffer: return "WaitOffer";
      case Phase::WaitInvalAcks: return "WaitInvalAcks";
      case Phase::Commit: return "Commit";
    }
    return "?";
}

Bits
ConcurrentProtocol::payloadBits(const Msg &m) const
{
    unsigned n = numCaches();
    unsigned bw = params.geometry.blockWords;
    switch (m.type) {
      case MsgType::DataBlock:
      case MsgType::WriteBack:
        return params.sizes.blockPayload(bw);
      case MsgType::Datum:
        return params.sizes.wordBits +
            params.sizes.ownerIdPayload(n);
      case MsgType::StateXfer:
        return params.sizes.statePayload(n);
      case MsgType::StateCopyXfer:
        return params.sizes.statePayload(n) +
            params.sizes.blockPayload(bw);
      case MsgType::DwUpdate:
        return params.sizes.wordBits;
      case MsgType::OwnerAnnounce:
        return params.sizes.ownerIdPayload(n);
      case MsgType::EvictDone:
      case MsgType::RecoveryAck:
        return m.data.empty()
            ? 0 : params.sizes.blockPayload(bw);
      case MsgType::DurableWrite:
        return params.sizes.wordBits;
      default:
        return 0;
    }
}

std::uint32_t
ConcurrentProtocol::allocSlot(Msg &&m)
{
    if (freeSlot != NoSlot) {
        std::uint32_t slot = freeSlot;
        MsgSlot &s = msgSlab[slot];
        freeSlot = s.nextFree;
        s.msg = std::move(m);
        s.refs = 0;
        return slot;
    }
    std::uint32_t slot = static_cast<std::uint32_t>(msgSlab.size());
    msgSlab.emplace_back();
    msgSlab.back().msg = std::move(m);
    return slot;
}

void
ConcurrentProtocol::releaseSlot(std::uint32_t slot)
{
    MsgSlot &s = msgSlab[slot];
    s.refs = 0;
    s.nextFree = freeSlot;
    freeSlot = slot;
}

void
ConcurrentProtocol::deliverSlot(std::uint32_t slot, NodeId dst)
{
    // deliver() can send further messages and grow the slab, so the
    // message is taken out of the slot (moved on the last delivery,
    // copied before that) before the handler runs.
    MsgSlot &s = msgSlab[slot];
    s.msg.dst = dst;
    if (s.refs <= 1) {
        Msg local = std::move(s.msg);
        releaseSlot(slot);
        deliver(local);
    } else {
        --s.refs;
        Msg local = s.msg;
        deliver(local);
    }
}

void
ConcurrentProtocol::vBuffer(Msg m)
{
    if (vDedupSends) {
        auto same = [&m](const VerifyPending &p) {
            const Msg &q = p.msg;
            return q.type == m.type && q.src == m.src &&
                   q.dst == m.dst && q.toMemory == m.toMemory &&
                   q.blk == m.blk && q.requester == m.requester &&
                   q.offset == m.offset && q.value == m.value &&
                   q.seq == m.seq && q.tok == m.tok &&
                   q.flag == m.flag &&
                   q.field.state == m.field.state &&
                   q.field.modified == m.field.modified &&
                   q.field.owner == m.field.owner &&
                   q.field.present == m.field.present &&
                   q.data == m.data;
        };
        for (const VerifyPending &p : vPending) {
            if (p.srcIsMem == vMemSend && same(p))
                return; // verbatim copy already in flight: fold
        }
    }
    vPending.push_back({std::move(m), vMemSend});
}

void
ConcurrentProtocol::scheduleLocal(Msg m, Tick delay)
{
    if (vControlled) {
        vBuffer(std::move(m));
        return;
    }
    NodeId dst = m.dst;
    std::uint32_t slot = allocSlot(std::move(m));
    msgSlab[slot].refs = 1;
    eq.scheduleIn([this, slot, dst] { deliverSlot(slot, dst); },
                  delay);
}

void
ConcurrentProtocol::send(Msg m)
{
    Bits total = params.sizes.control() + payloadBits(m);
    msgs.record(m.type, total);
    trace(TraceEvent::Send, m.src, m.dst,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
    if (vControlled) {
        // Delivery order is the explorer's choice, not the
        // network's: park the message until an action picks it.
        vBuffer(std::move(m));
        return;
    }
    if (m.src == m.dst) {
        // Co-located processor-memory element: local exchange.
        scheduleLocal(std::move(m), 1);
        return;
    }
    NodeId src = m.src;
    NodeId dst = m.dst;
    injector.setMessageClass(classOf(m.type), m.toMemory);
    std::uint32_t slot = allocSlot(std::move(m));
    timedNet.sendUnicast(src, dst, total,
                         [this, slot](NodeId d, Tick) {
                             deliverSlot(slot, d);
                         });
    // Deliveries fire strictly after send() returns, so the
    // refcount can be installed from the network's tally. Injected
    // drops can eat every delivery; reclaim the slot then or it
    // would leak for the rest of the run.
    std::uint32_t refs =
        static_cast<std::uint32_t>(timedNet.lastDeliveries());
    if (refs == 0) {
        releaseSlot(slot);
        return;
    }
    msgSlab[slot].refs = refs;
}

void
ConcurrentProtocol::sendMulticastMsg(MsgType t, NodeId src,
                                     const std::vector<NodeId> &
                                         dests,
                                     Bits payload, BlockId blk,
                                     unsigned offset,
                                     std::uint64_t value,
                                     NodeId aux_owner)
{
    if (dests.empty())
        return;
    Bits total = params.sizes.control() + payload;
    msgs.record(t, total);
    // node2 carries the destination count for multicasts.
    trace(TraceEvent::Send, src,
          static_cast<NodeId>(dests.size()),
          static_cast<std::uint8_t>(t), 0, blk);
    Msg proto_msg;
    proto_msg.type = t;
    proto_msg.src = src;
    proto_msg.toMemory = false;
    proto_msg.blk = blk;
    proto_msg.offset = offset;
    proto_msg.value = value;
    proto_msg.requester = aux_owner;
    if (vControlled) {
        // One pending entry per requested destination. Scheme-3
        // subcube overshoot is not modeled: overshoot deliveries
        // are ignored by every handler, so the explored behavior
        // is that of an exact multicast.
        for (NodeId d : dests) {
            Msg copy = proto_msg;
            copy.dst = d;
            vBuffer(std::move(copy));
        }
        return;
    }
    injector.setMessageClass(classOf(t));
    std::uint32_t slot = allocSlot(std::move(proto_msg));
    timedNet.sendMulticast(
        params.multicastScheme, src, dests, total,
        [this, slot](NodeId dst, Tick) {
            deliverSlot(slot, dst);
        });
    // Scheme 3 can deliver to more ports than requested (subcube
    // overshoot); the network reports the exact count. Zero means
    // every delivery was dropped by the injector: reclaim the slot.
    std::uint32_t refs =
        static_cast<std::uint32_t>(timedNet.lastDeliveries());
    if (refs == 0) {
        releaseSlot(slot);
        return;
    }
    msgSlab[slot].refs = refs;
}

void
ConcurrentProtocol::deliver(const Msg &m)
{
    DPRINTF("Concurrent", "t=%llu %s %u->%u blk=%llu req=%u "
            "off=%u val=%llu flag=%d %s",
            static_cast<unsigned long long>(eq.curTick()),
            msgTypeName(m.type), m.src, m.dst,
            static_cast<unsigned long long>(m.blk), m.requester,
            m.offset, static_cast<unsigned long long>(m.value),
            m.flag, m.toMemory ? "mem" : "cache");
    trace(TraceEvent::Deliver, m.src, m.dst,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
    if (_aborted)
        return; // watchdog fired: freeze state, let the queue drain
    if (!m.toMemory && deadNodes.test(m.dst)) {
        // Local-path dead-node sink (network deliveries are sunk by
        // the injector before they are scheduled): a crashed cache
        // neither receives nor acknowledges. Memory-bound messages
        // pass - the co-located module survives its cache.
        injector.recordCrashMasked(classOf(m.type));
        trace(TraceEvent::CrashMask, m.dst, m.src,
              static_cast<std::uint8_t>(m.type), m.seq, m.blk);
        return;
    }
    if (m.toMemory) {
        // Messages sent while a home handler runs carry the memory
        // src role (see VerifyPending::srcIsMem); inert otherwise.
        bool saved = vMemSend;
        vMemSend = true;
        handleMemMsg(m);
        vMemSend = saved;
    } else {
        handleCacheMsg(m);
    }
}

// ---------------------------------------------------------------
// CPU side
// ---------------------------------------------------------------

void
ConcurrentProtocol::issueNext(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    if (_aborted || cs.active || !cs.hasQueued() ||
        deadNodes.test(cpu))
        return;
    cs.ref = cs.queue[cs.head++];
    cs.active = true;
    cs.issueTick = eq.curTick();
    cs.attempts = 0;
    DPRINTF("Concurrent", "t=%llu cpu%u issues %c @%llu val=%llu",
            static_cast<unsigned long long>(eq.curTick()), cpu,
            cs.ref.isWrite ? 'W' : 'R',
            static_cast<unsigned long long>(cs.ref.addr),
            static_cast<unsigned long long>(cs.ref.value));
    cs.phase = Phase::Idle;
    cs.pointerRetries = 0;
    if (cs.ref.isWrite) {
        ++ctrs.writes;
        monitorWritePending(cs.ref.addr, cs.ref.value);
    } else {
        ++ctrs.reads;
    }
    cs.opId = ++cs.opGen;
    if (vControlled)
        vObsLog.push_back({cpu, /*invoke=*/true, cs.ref.isWrite,
                           cs.ref.addr, cs.ref.value});
    cs.opClass = cs.ref.isWrite ? OpClass::WriteMiss
        : OpClass::ReadMiss;
    trace(TraceEvent::Issue, cpu, cpu,
          static_cast<std::uint8_t>(cs.opClass), cs.opId,
          params.geometry.blockOf(cs.ref.addr));
    startAccess(cpu);
}

void
ConcurrentProtocol::completeRef(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    if (crashEnabled() && !cs.active) {
        // The cpu crashed between scheduling this completion and
        // now; the reference was already accounted as lost.
        return;
    }
    panic_if(!cs.active, "completing an idle cpu");
    Tick latency = eq.curTick() - cs.issueTick;
    if (latSink)
        latSink(cs.opClass, latency);
    trace(TraceEvent::Complete, cpu, cpu,
          static_cast<std::uint8_t>(cs.opClass), cs.opId, latency);
    if (cs.ref.isWrite) {
        monitorWriteComplete(cs.ref.addr, cs.ref.value);
        writeLatSum += static_cast<double>(latency);
        ++writesDone;
    } else {
        readLatSum += static_cast<double>(latency);
        ++readsDone;
    }
    if (vControlled)
        vObsLog.push_back({cpu, /*invoke=*/false, cs.ref.isWrite,
                           cs.ref.addr,
                           cs.ref.isWrite ? cs.ref.value
                                          : cs.vSample});
    cs.pinnedTx.erase(params.geometry.blockOf(cs.ref.addr));
    cs.purged.erase(params.geometry.blockOf(cs.ref.addr));
    cs.active = false;
    cs.phase = Phase::Idle;
    cs.vCommitPending = false;
    disarmTimeout(cpu);
    --refsOutstanding;
    if (refsOutstanding == 0 && watchdogArmed) {
        // Keep the makespan clean: no trailing watchdog scans.
        eq.deschedule(watchdogEv);
        watchdogArmed = false;
    }
    if (vControlled)
        return; // the next reference issues as an explorer action
    eq.scheduleIn([this, cpu] { issueNext(cpu); },
                  params.thinkTime + 1);
}

void
ConcurrentProtocol::startAccess(NodeId cpu)
{
    if (_aborted)
        return; // stop the defer/retry loops so the queue drains
    CpuState &cs = cpus[cpu];
    if (!cs.active)
        return; // a crash cut the transaction out from under us
    BlockId blk = params.geometry.blockOf(cs.ref.addr);
    unsigned off = params.geometry.offsetOf(cs.ref.addr);

    if (cs.clearPending.contains(blk)) {
        // A PresentClear for this block is still in flight; do not
        // re-register at the owner until it is acknowledged (the
        // clear could bounce via a NACK re-forward and erase the
        // fresh registration).
        if (vControlled) {
            cs.vDeferred = true; // retried by an explorer action
            return;
        }
        eq.scheduleIn([this, cpu] { startAccess(cpu); }, 20);
        return;
    }
    Entry *e = findEntry(cpu, blk);

    if (!cs.ref.isWrite) {
        if (e && cache::isValid(e->field.state)) {
            ++ctrs.readHits;
            cs.array.touch(*e);
            cs.vSample = e->data[off];
            checkReadSample(cs.ref.addr, e->data[off]);
            cs.opClass = OpClass::ReadHit;
            cs.phase = Phase::Commit;
            trace(TraceEvent::Commit, cpu, cpu,
                  static_cast<std::uint8_t>(cs.opClass), cs.opId, 0);
            if (vControlled) {
                // Completion is a separate action so the explorer
                // covers the Commit-window dup races.
                cs.vCommitPending = true;
                return;
            }
            eq.scheduleIn([this, cpu] { completeRef(cpu); },
                          params.hitLatency);
            return;
        }
        if (e && e->field.owner != invalidNode &&
            cs.pointerRetries < 2) {
            // OWNER-pointer bypass; may race and be NACKed. After
            // two races the transaction falls back to the home.
            ++ctrs.pointerReads;
            cs.pinnedTx.insert(blk);
            cs.phase = Phase::WaitPointer;
            Msg m;
            m.type = MsgType::LoadReq;
            m.src = cpu;
            m.dst = e->field.owner;
            m.blk = blk;
            m.offset = off;
            m.requester = cpu;
            m.seq = cs.txSeq = ++cs.seqGen;
            cs.lastReq = m;
            send(m);
            armTimeout(cpu);
            return;
        }
        if (!allocateForMiss(cpu, blk))
            return; // eviction or retry in progress
        beginMissRequest(cpu, blk);
        return;
    }

    if (e && cache::isValid(e->field.state)) {
        cs.array.touch(*e);
        if (cache::isOwned(e->field.state)) {
            ++ctrs.writeHits;
            cs.opClass = OpClass::WriteHit;
            performOwnedWrite(cpu);
            return;
        }
        // UnOwned: acquire ownership through the home.
        cs.opClass = OpClass::Upgrade;
        cs.pinnedTx.insert(blk);
        cs.phase = Phase::WaitOwnXfer;
        Msg m;
        m.type = MsgType::OwnReq;
        m.src = cpu;
        m.dst = homeOf(blk);
        m.toMemory = true;
        m.blk = blk;
        m.requester = cpu;
        m.seq = cs.txSeq = ++cs.seqGen;
        cs.lastReq = m;
        send(m);
        armTimeout(cpu);
        return;
    }
    if (!allocateForMiss(cpu, blk))
        return;
    beginMissRequest(cpu, blk);
}

void
ConcurrentProtocol::performOwnedWrite(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    BlockId blk = params.geometry.blockOf(cs.ref.addr);
    unsigned off = params.geometry.offsetOf(cs.ref.addr);
    Entry *e = findEntry(cpu, blk);
    panic_if(!e || !cache::isOwned(e->field.state),
             "owned write without ownership");

    e->data[off] = cs.ref.value;
    e->field.modified = true;

    if (crashEnabled()) {
        // Write-through under a crash plan: a committed write must
        // survive the writer's own crash, because the memory copy
        // is the root a reconstruction rebuilds from. The send-tick
        // stamp keeps a delayed older word from clobbering a newer
        // one at the home (ownership hand-offs order the stamps
        // causally).
        ++ctrs.durableWrites;
        Msg dw;
        dw.type = MsgType::DurableWrite;
        dw.src = cpu;
        dw.dst = homeOf(blk);
        dw.toMemory = true;
        dw.blk = blk;
        dw.offset = off;
        dw.value = cs.ref.value;
        dw.requester = cpu;
        dw.seq = eq.curTick();
        send(dw);
    }

    if (e->field.state == State::OwnedNonExclDW) {
        const auto &dests = othersPresent(*e, cpu);
        if (!dests.empty()) {
            ++ctrs.dwUpdates;
            cs.ackFrom.clear();
            for (NodeId d : dests)
                cs.ackFrom.set(d);
            cs.pendingAcks = static_cast<unsigned>(dests.size());
            cs.pinnedTx.insert(blk);
            cs.phase = Phase::WaitDwAcks;
            sendMulticastMsg(MsgType::DwUpdate, cpu, dests,
                             params.sizes.wordBits, blk, off,
                             cs.ref.value, cpu);
            armTimeout(cpu);
            return;
        }
    }
    cs.phase = Phase::Commit;
    trace(TraceEvent::Commit, cpu, cpu,
          static_cast<std::uint8_t>(cs.opClass), cs.opId, 0);
    if (vControlled) {
        cs.vCommitPending = true;
        return;
    }
    eq.scheduleIn([this, cpu] { completeRef(cpu); },
                  params.hitLatency);
}

bool
ConcurrentProtocol::allocateForMiss(NodeId cpu, BlockId blk)
{
    CpuState &cs = cpus[cpu];
    if (Entry *e = cs.array.find(blk)) {
        cs.array.touch(*e);
        cs.pinnedTx.insert(blk);
        return true;
    }
    Entry *victim = cs.array.pickVictimFiltered(
        blk, [&cs](const Entry &e) {
            return !cs.isPinned(e.block);
        });
    if (!victim) {
        // Every way pinned by in-flight work: retry shortly.
        if (vControlled) {
            cs.vDeferred = true;
            return false;
        }
        eq.scheduleIn([this, cpu] { startAccess(cpu); }, 10);
        return false;
    }
    if (!victim->occupied) {
        cs.array.install(*victim, blk);
        cs.pinnedTx.insert(blk);
        return true;
    }

    // Eviction needed.
    ++ctrs.evictions;
    cs.evicting = true;
    cs.victimBlk = victim->block;
    switch (victim->field.state) {
      case State::UnOwned:
      case State::Invalid: {
        // Fire-and-forget present-flag clear via the home.
        Msg m;
        m.type = MsgType::PresentClear;
        m.src = cpu;
        m.dst = homeOf(cs.victimBlk);
        m.toMemory = true;
        m.blk = cs.victimBlk;
        m.requester = cpu;
        send(m);
        cs.clearPending.insert(cs.victimBlk);
        cs.array.evict(*victim);
        cs.evicting = false;
        cs.array.install(*cs.array.pickVictim(blk), blk);
        cs.pinnedTx.insert(blk);
        return true;
      }
      default: {
        // Owned victim: serialize the eviction with the home.
        cs.phase = Phase::WaitEvictAck;
        cs.evictStartTick = eq.curTick();
        trace(TraceEvent::EvictStart, cpu, homeOf(cs.victimBlk), 0,
              cs.opId, cs.victimBlk);
        Msg m;
        m.type = MsgType::EvictReq;
        m.src = cpu;
        m.dst = homeOf(cs.victimBlk);
        m.toMemory = true;
        m.blk = cs.victimBlk;
        m.requester = cpu;
        m.seq = cs.txSeq = ++cs.seqGen;
        cs.lastReq = m;
        send(m);
        armTimeout(cpu);
        return false;
      }
    }
}

void
ConcurrentProtocol::beginMissRequest(NodeId cpu, BlockId blk)
{
    CpuState &cs = cpus[cpu];
    cs.phase = Phase::WaitHome;
    Msg m;
    m.type = cs.ref.isWrite ? MsgType::LoadOwnReq
        : MsgType::LoadReq;
    m.src = cpu;
    m.dst = homeOf(blk);
    m.toMemory = true;
    m.blk = blk;
    m.offset = params.geometry.offsetOf(cs.ref.addr);
    m.requester = cpu;
    m.seq = cs.txSeq = ++cs.seqGen;
    cs.lastReq = m;
    send(m);
    armTimeout(cpu);
}

void
ConcurrentProtocol::endEviction(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    Tick lat = eq.curTick() - cs.evictStartTick;
    if (latSink)
        latSink(OpClass::Eviction, lat);
    trace(TraceEvent::EvictEnd, cpu, cpu,
          static_cast<std::uint8_t>(OpClass::Eviction), cs.opId,
          lat);
}

void
ConcurrentProtocol::continueEviction(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    Entry *ve = findEntry(cpu, cs.victimBlk);
    if (!ve) {
        // The victim was invalidated while the eviction waited in
        // the home's queue (an all-nack fallback elsewhere):
        // nothing to hand over, just release the busy period.
        Msg m;
        m.type = MsgType::EvictDone;
        m.src = cpu;
        m.dst = homeOf(cs.victimBlk);
        m.toMemory = true;
        m.blk = cs.victimBlk;
        m.tok = cs.evictToken;
        m.flag = false;
        send(m);
        endEviction(cpu);
        cs.evicting = false;
        cs.phase = Phase::Idle;
        startAccess(cpu);
        return;
    }

    switch (ve->field.state) {
      case State::OwnedExclDW:
      case State::OwnedExclGR:
        finishEviction(cpu, true, ve->field.modified);
        break;
      case State::OwnedNonExclDW:
      case State::OwnedNonExclGR:
        ++ctrs.handoffs;
        cs.candidates = othersPresent(*ve, cpu);
        cs.candIdx = 0;
        cs.phase = Phase::WaitOffer;
        sendNextOffer(cpu);
        break;
      default: {
        // Lost ownership while the eviction was queued: the entry
        // is now UnOwned/Invalid; release the busy and notify.
        Msg pc;
        pc.type = MsgType::PresentClear;
        pc.src = cpu;
        pc.dst = homeOf(cs.victimBlk);
        pc.toMemory = true;
        pc.blk = cs.victimBlk;
        pc.requester = cpu;
        send(pc);
        cs.clearPending.insert(cs.victimBlk);
        finishEviction(cpu, false, false);
        break;
      }
    }
}

void
ConcurrentProtocol::sendNextOffer(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    Entry *ve = findEntry(cpu, cs.victimBlk);
    panic_if(!ve, "offer for a vanished victim");

    if (crashEnabled()) {
        // Never offer ownership to a dead node: the offer would
        // sink and the hand-off would spin on timeouts.
        while (cs.candIdx < cs.candidates.size() &&
               deadNodes.test(cs.candidates[cs.candIdx]))
            ++cs.candIdx;
    }

    if (cs.candIdx >= cs.candidates.size()) {
        // Everyone declined: invalidate the remaining copies, then
        // write back and clear the block store (terminal rule).
        const auto &dests = othersPresent(*ve, cpu);
        if (dests.empty()) {
            finishEviction(cpu, true, ve->field.modified);
            return;
        }
        ++ctrs.handoffFallbacks;
        cs.ackFrom.clear();
        for (NodeId d : dests)
            cs.ackFrom.set(d);
        cs.pendingAcks = static_cast<unsigned>(dests.size());
        cs.phase = Phase::WaitInvalAcks;
        sendMulticastMsg(MsgType::Invalidate, cpu, dests, 0,
                         cs.victimBlk, 0, 0, cpu);
        armTimeout(cpu);
        return;
    }

    Msg m;
    m.type = MsgType::OfferOwner;
    m.src = cpu;
    m.dst = cs.candidates[cs.candIdx];
    m.blk = cs.victimBlk;
    m.requester = cpu;
    send(m);
    armTimeout(cpu);
}

void
ConcurrentProtocol::finishEviction(NodeId cpu, bool clear_owner,
                                   bool write_back)
{
    CpuState &cs = cpus[cpu];
    Entry *ve = findEntry(cpu, cs.victimBlk);
    panic_if(!ve, "finishing eviction without a victim");

    Msg m;
    m.type = MsgType::EvictDone;
    m.src = cpu;
    m.dst = homeOf(cs.victimBlk);
    m.toMemory = true;
    m.blk = cs.victimBlk;
    m.tok = cs.evictToken;
    m.flag = clear_owner;
    if (write_back) {
        m.data = ve->data;
        ++ctrs.writeBacks;
    }
    if (crashEnabled()) {
        // Stamp the write-back so it cannot clobber a fresher
        // durable word at the home (see applyDurableWord).
        m.seq = eq.curTick();
    }
    send(m);

    cs.array.evict(*ve);
    endEviction(cpu);
    cs.evicting = false;
    cs.phase = Phase::Idle;
    // Resume the original access from scratch.
    startAccess(cpu);
}

// ---------------------------------------------------------------
// Cache-side handlers
// ---------------------------------------------------------------

void
ConcurrentProtocol::serveForward(const Msg &m)
{
    // LoadFwd / LoadOwnFwd / OwnFwd arriving at the current owner.
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    NodeId r = m.requester;
    Entry *e = findEntry(me, m.blk);

    if (crashEnabled() && deadNodes.test(r)) {
        // The requester died while its forward was in flight.
        // Serving would re-register its present bit (or worse,
        // transfer ownership into the void); sink the forward and
        // let the home's dead-releaser sweep reclaim any busy
        // period the request holds.
        return;
    }

    if (r == me) {
        // Either the requester became owner while its request was
        // queued (hand-off overtook it), or a superseded retry of
        // an already-settled request drained behind us. Only the
        // former completes the transaction; the latter just has to
        // release the busy period it holds.
        bool mine = cs.active && m.seq == cs.txSeq &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitOwnXfer) &&
            (m.type == MsgType::LoadFwd) == !cs.ref.isWrite;
        if (!mine || !e || !cache::isOwned(e->field.state)) {
            ++ctrs.staleForwards;
            if (m.flag) {
                Msg ub;
                ub.type = MsgType::Unblock;
                ub.src = me;
                ub.dst = homeOf(m.blk);
                ub.toMemory = true;
                ub.blk = m.blk;
                ub.requester = me;
                ub.tok = m.tok;
                ub.flag = false;
                send(ub);
            }
            return;
        }
        ++ctrs.selfForwards;
        disarmTimeout(me);
        if (m.flag) {
            Msg ub;
            ub.type = MsgType::Unblock;
            ub.src = me;
            ub.dst = homeOf(m.blk);
            ub.toMemory = true;
            ub.blk = m.blk;
            ub.requester = me;
            ub.tok = m.tok;
            ub.flag = false; // ownership already recorded
            send(ub);
        }
        if (m.type == MsgType::LoadFwd) {
            unsigned off = params.geometry.offsetOf(cs.ref.addr);
            cs.vSample = e->data[off];
            checkReadSample(cs.ref.addr, e->data[off]);
            completeRef(me);
        } else {
            performOwnedWrite(me);
        }
        return;
    }

    panic_if(!e || !cache::isOwned(e->field.state),
             "forward reached non-owner %u for block %llu", me,
             static_cast<unsigned long long>(m.blk));
    trace(TraceEvent::Forward, me, r,
          static_cast<std::uint8_t>(m.type), m.seq, m.blk);
    Mode mode = cache::modeOf(e->field.state);

    if (m.type == MsgType::LoadFwd) {
#ifdef MSCP_FAULT_SEAM
        if (!(g_faultSeam && mode == Mode::DistributedWrite))
            e->field.present.set(r);
#else
        e->field.present.set(r);
#endif
        if (mode == Mode::DistributedWrite) {
            e->field.state = State::OwnedNonExclDW;
            Msg reply;
            reply.type = MsgType::DataBlock;
            reply.src = me;
            reply.dst = r;
            reply.blk = m.blk;
            reply.data = e->data;
            reply.flag = m.flag;
            reply.seq = m.seq; // echo of the requester's attempt
            reply.tok = m.tok; // busy token travels to the unblock
            reply.field.state = State::UnOwned;
            send(reply);
        } else {
            e->field.state = State::OwnedNonExclGR;
            Msg reply;
            reply.type = MsgType::Datum;
            reply.src = me;
            reply.dst = r;
            reply.blk = m.blk;
            reply.offset = m.offset;
            reply.value = e->data[m.offset];
            reply.flag = m.flag;
            reply.seq = m.seq;
            reply.tok = m.tok;
            send(reply);
        }
        // The served value is this read's linearization point.
        checkReadSample(params.geometry.baseOf(m.blk) + m.offset,
                        e->data[m.offset]);
        return;
    }

    // Ownership transfer (LoadOwnFwd or OwnFwd).
    ++ctrs.ownershipTransfers;
    // An upgrade (OwnFwd) from a cache absent from the present
    // vector lost its copy while the request was queued (an
    // invalidation under a previous busy period); ship the data
    // too. Evaluate before registering the requester.
    bool requester_has_copy = e->field.present.test(r);
    e->field.present.set(r);

    cache::StateField field = e->field;
    field.owner = invalidNode;
    bool send_copy = (m.type == MsgType::LoadOwnFwd) ||
        mode == Mode::GlobalRead || !requester_has_copy;
    field.state = (mode == Mode::DistributedWrite)
        ? State::OwnedNonExclDW : State::OwnedNonExclGR;

    Msg reply;
    reply.type = send_copy ? MsgType::StateCopyXfer
        : MsgType::StateXfer;
    reply.src = me;
    reply.dst = r;
    reply.blk = m.blk;
    reply.requester = r; // marks this as the requester's own reply
    reply.field = field;
    reply.flag = m.flag;
    reply.seq = m.seq;
    reply.tok = m.tok;
    if (send_copy)
        reply.data = e->data;
    send(reply);

    if (mode == Mode::DistributedWrite) {
        e->field.state = State::UnOwned;
        e->field.modified = false;
        e->field.present.clear();
    } else {
        // Announce the new owner to the other pointer holders.
        announceScratch.clear();
        const DynamicBitset &p = field.present;
        for (std::size_t i = p.findFirst(); i < p.size();
             i = p.findNext(i)) {
            if (i != r && i != me)
                announceScratch.push_back(static_cast<NodeId>(i));
        }
        sendMulticastMsg(MsgType::OwnerAnnounce, me,
                         announceScratch,
                         params.sizes.ownerIdPayload(numCaches()),
                         m.blk, 0, r, r);
        e->field.state = State::Invalid;
        e->field.owner = r;
        e->field.modified = false;
        e->field.present.clear();
    }
}

void
ConcurrentProtocol::dropStaleReply(const Msg &m)
{
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    ++ctrs.staleReplies;
    if (m.flag) {
        // Served under a busy period: the home still waits for the
        // release (a no-op there if the accepted copy already sent
        // it - the token is single-use).
        Msg ub;
        ub.type = MsgType::Unblock;
        ub.src = me;
        ub.dst = homeOf(m.blk);
        ub.toMemory = true;
        ub.blk = m.blk;
        ub.requester = me;
        ub.tok = m.tok;
        ub.flag = false;
        send(ub);
    }
    if (!findEntry(me, m.blk) && !cs.clearPending.contains(m.blk)) {
        // The serve registered us in the owner's present vector but
        // we keep no entry: deregister, or the directory invariants
        // break at quiescence.
        Msg pc;
        pc.type = MsgType::PresentClear;
        pc.src = me;
        pc.dst = homeOf(m.blk);
        pc.toMemory = true;
        pc.blk = m.blk;
        pc.requester = me;
        send(pc);
        cs.clearPending.insert(m.blk);
    }
}

void
ConcurrentProtocol::handleCacheMsg(const Msg &m)
{
    NodeId me = m.dst;
    CpuState &cs = cpus[me];
    Entry *e = findEntry(me, m.blk);

    switch (m.type) {
      case MsgType::LoadFwd:
      case MsgType::LoadOwnFwd:
      case MsgType::OwnFwd:
        serveForward(m);
        return;

      case MsgType::LoadReq: {
        // Direct pointer-bypass read.
        if (crashEnabled() && deadNodes.test(m.requester))
            return; // requester died with its request in flight
        bool canServe = e && cache::isOwned(e->field.state);
#ifdef MSCP_FAULT_SEAM
        if (g_livelockSeam)
            canServe = false; // refuse reads we own (livelock seam)
#endif
        if (canServe) {
            Mode mode = cache::modeOf(e->field.state);
            e->field.present.set(m.requester);
            if (mode == Mode::GlobalRead) {
                e->field.state = State::OwnedNonExclGR;
                Msg reply;
                reply.type = MsgType::Datum;
                reply.src = me;
                reply.dst = m.requester;
                reply.blk = m.blk;
                reply.offset = m.offset;
                reply.value = e->data[m.offset];
                reply.seq = m.seq;
                send(reply);
            } else {
                e->field.state = State::OwnedNonExclDW;
                Msg reply;
                reply.type = MsgType::DataBlock;
                reply.src = me;
                reply.dst = m.requester;
                reply.blk = m.blk;
                reply.data = e->data;
                reply.field.state = State::UnOwned;
                reply.seq = m.seq;
                send(reply);
            }
            checkReadSample(params.geometry.baseOf(m.blk) +
                            m.offset, e->data[m.offset]);
        } else {
            trace(TraceEvent::Nack, me, m.requester,
                  static_cast<std::uint8_t>(MsgType::NackNotOwner),
                  m.seq, m.blk);
            Msg nack;
            nack.type = MsgType::NackNotOwner;
            nack.src = me;
            nack.dst = m.requester;
            nack.blk = m.blk;
            nack.seq = m.seq;
            send(nack);
        }
        return;
      }

      case MsgType::NackNotOwner: {
        // Our pointer bypass raced with a transfer: fall back to
        // the home, re-running the access (the entry may be gone).
        if (!cs.active || m.seq != cs.txSeq ||
            cs.phase != Phase::WaitPointer ||
            params.geometry.blockOf(cs.ref.addr) != m.blk) {
            ++ctrs.staleReplies; // duplicate of a handled nack
            return;
        }
        ++ctrs.pointerNacks;
#ifdef MSCP_FAULT_SEAM
        if (!g_livelockSeam) // seam: never fall back to the home
            ++cs.pointerRetries;
#else
        ++cs.pointerRetries;
#endif
        cs.pinnedTx.erase(m.blk);
        cs.phase = Phase::Idle;
        disarmTimeout(me);
        startAccess(me);
        return;
      }

      case MsgType::Datum: {
        bool mine = cs.active && m.seq == cs.txSeq &&
            !cs.ref.isWrite &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitPointer);
        if (!mine) {
            dropStaleReply(m);
            return;
        }
        if (crashEnabled() && cs.purged.contains(m.blk)) {
            // Served before the reconstruction fence: the value and
            // the owner hint predate the crash. Re-run the access
            // against the rebuilt directory.
            restartPurgedTx(me, m);
            return;
        }
        disarmTimeout(me);
        // The value was checked at its sampling point (the owner).
        if (cs.phase == Phase::WaitHome) {
            panic_if(!e, "datum reply without an entry");
            e->field.state = State::Invalid;
            e->field.owner = m.src;
            if (m.flag) {
                Msg ub;
                ub.type = MsgType::Unblock;
                ub.src = me;
                ub.dst = homeOf(m.blk);
                ub.toMemory = true;
                ub.blk = m.blk;
                ub.tok = m.tok;
                ub.flag = false;
                send(ub);
            }
        } else {
            if (e && e->field.owner == invalidNode) {
                // Our pointer entry was invalidated (and replaced
                // by a placeholder) while the request was in
                // flight: the owner registration is gone, so drop
                // the stale hint instead of resurrecting it.
                cs.array.evict(*e);
            } else if (e) {
                e->field.owner = m.src;
            }
        }
        cs.vSample = m.value;
        completeRef(me);
        return;
      }

      case MsgType::DataBlock: {
        // A write transaction can only be completed by an owning
        // grant (from memory, or a StateCopyXfer); an UnOwned copy
        // reaching it is a stale duplicate of an earlier read's
        // serve that must not be mistaken for the reply.
        // WaitOwnXfer is a valid receiving phase: an upgrade whose
        // previous owner fully evicted is served from memory with
        // a DataBlock, not a transfer.
        //
        // A stale owning grant (its attempt superseded by a
        // recovery restart) is NOT accepted: its payload is
        // memory's value as of the old serve, and recovery may
        // have let another write complete since. dropStaleReply
        // releases the serve's busy period with flag=false, so the
        // home never registers the refuser as owner.
        bool grant = cache::isOwned(m.field.state);
        bool mine = cs.active && m.seq == cs.txSeq &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitPointer ||
             cs.phase == Phase::WaitOwnXfer) &&
            (!cs.ref.isWrite || grant);
        if (mine && crashEnabled() && cs.purged.contains(m.blk)) {
            if (cache::isOwned(m.field.state)) {
                // An owning grant comes straight from memory, and a
                // fenced home serves nothing: this is the rebuilt
                // block, not pre-crash state. Accept it and drop
                // the restart marker.
                cs.purged.erase(m.blk);
            } else {
                // A non-owning copy could have been served before
                // the fence; restart against the rebuilt directory.
                restartPurgedTx(me, m);
                return;
            }
        }
        if (!mine || !e) {
            dropStaleReply(m);
            return;
        }
        disarmTimeout(me);
        e->data = m.data;
        e->field.state = m.field.state;
        if (cache::isOwned(e->field.state)) {
            // From memory: we are the (exclusive) owner now.
            e->field.present.clear();
            e->field.present.set(me);
            e->field.modified = false;
        }
        e->field.owner = invalidNode;
        if (m.flag) {
            Msg ub;
            ub.type = MsgType::Unblock;
            ub.src = me;
            ub.dst = homeOf(m.blk);
            ub.toMemory = true;
            ub.blk = m.blk;
            ub.requester = me;
            ub.tok = m.tok;
            // An owning grant from memory is confirmed here: the
            // home registers us as owner only on this release, so
            // a refused grant leaves the directory unowned.
            ub.flag = grant;
            send(ub);
        }
        if (cs.ref.isWrite) {
            performOwnedWrite(me);
        } else {
            // The value was checked at its sampling point (owner
            // or home); the reply payload is authoritative.
            cs.vSample =
                m.data[params.geometry.offsetOf(cs.ref.addr)];
            completeRef(me);
        }
        return;
      }

      case MsgType::StateXfer:
      case MsgType::StateCopyXfer: {
        // Continue our own transaction only if this transfer is
        // the reply to it (requester tag): an ownership hand-off
        // can land while our upgrade request is still queued at
        // the home, and that request's eventual (self-)forward is
        // the transaction's real completion point.
        bool mine = cs.active && m.requester == me &&
            m.seq == cs.txSeq && cs.ref.isWrite &&
            params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitOwnXfer ||
             cs.phase == Phase::WaitHome);
        bool handoff = m.requester == invalidNode &&
            cs.pinnedOffer.contains(m.blk);
        if (!mine && !handoff) {
            // Duplicate of an accepted transfer. Mirror the unblock
            // the accepted copy sent (flag=true): the token is
            // single-use at the home, so whichever release arrives
            // first records the same ownership change and the other
            // is discarded.
            ++ctrs.staleReplies;
            if (m.flag) {
                Msg ub;
                ub.type = MsgType::Unblock;
                ub.src = me;
                ub.dst = homeOf(m.blk);
                ub.toMemory = true;
                ub.blk = m.blk;
                ub.requester = me;
                ub.tok = m.tok;
                ub.flag = true;
                send(ub);
            }
            return;
        }
        if (mine && crashEnabled() && cs.purged.contains(m.blk)) {
            // Unlike an owning DataBlock grant (memory only serves
            // those after the rebuild), a transfer comes from
            // another cache and can have been launched before the
            // reconstruction fence -- its field and present vector
            // are pre-crash state. Hand the busy token back and
            // re-run against the rebuilt directory; memory plus
            // the durable-write log is authoritative after a
            // crash, so the in-flight copy may be dropped.
            restartPurgedTx(me, m);
            return;
        }
        panic_if(!e, "state transfer without an entry");
        panic_if(m.type == MsgType::StateXfer &&
                 e->field.state != State::UnOwned,
                 "data-less state transfer onto a %s entry",
                 cache::stateName(e->field.state));
        if (mine)
            disarmTimeout(me);
        e->field = m.field;
        e->field.owner = invalidNode;
        if (crashEnabled()) {
            // A transfer carries the old owner's present vector;
            // never inherit a registration for a crashed cache.
            for (std::size_t i = deadNodes.findFirst();
                 i < deadNodes.size(); i = deadNodes.findNext(i))
                e->field.present.reset(i);
        }
        panic_if(!e->field.present.test(me),
                 "transferred present vector misses the new owner");
        if (m.type == MsgType::StateCopyXfer)
            e->data = m.data;
        maybeExclusive(*e, me);
        cs.array.touch(*e);

        if (m.flag) {
            Msg ub;
            ub.type = MsgType::Unblock;
            ub.src = me;
            ub.dst = homeOf(m.blk);
            ub.toMemory = true;
            ub.blk = m.blk;
            ub.requester = me;
            ub.tok = m.tok;
            ub.flag = true; // record the ownership change
            send(ub);
        }
        if (mine) {
            performOwnedWrite(me);
        } else {
            // Accepted hand-off: unpin the offer.
            cs.pinnedOffer.erase(m.blk);
        }
        return;
      }

      case MsgType::DwUpdate: {
        if (e && e->field.state == State::UnOwned)
            e->data[m.offset] = m.value;
        Msg ack;
        ack.type = MsgType::DwAck;
        ack.src = me;
        ack.dst = m.src;
        ack.blk = m.blk;
        send(ack);
        return;
      }

      case MsgType::DwAck: {
        if (cs.phase != Phase::WaitDwAcks ||
            params.geometry.blockOf(cs.ref.addr) != m.blk ||
            !cs.ackFrom.test(m.src)) {
            return; // overshoot delivery or duplicate ack: ignore
        }
        cs.ackFrom.reset(m.src);
        if (--cs.pendingAcks == 0)
            completeRef(me);
        return;
      }

      case MsgType::Invalidate: {
        if (e) {
            bool pinned = cs.isPinned(m.blk);
            cs.array.evict(*e);
            if (pinned) {
                // Keep a placeholder for the in-flight reply.
                Entry *fresh = cs.array.pickVictim(m.blk);
                cs.array.install(*fresh, m.blk);
            }
        }
        Msg ack;
        ack.type = MsgType::InvalAck;
        ack.src = me;
        ack.dst = m.src;
        ack.blk = m.blk;
        send(ack);
        return;
      }

      case MsgType::InvalAck: {
        if (cs.phase != Phase::WaitInvalAcks ||
            cs.victimBlk != m.blk || !cs.ackFrom.test(m.src)) {
            return;
        }
        cs.ackFrom.reset(m.src);
        if (--cs.pendingAcks == 0) {
            Entry *ve = findEntry(me, cs.victimBlk);
            finishEviction(me, true,
                           ve && ve->field.modified);
        }
        return;
      }

      case MsgType::OwnerAnnounce: {
        // Never resurrect a pointer to a dead owner: the announce
        // was in flight when its subject crashed.
        if (e && e->field.state == State::Invalid &&
            !deadNodes.test(static_cast<NodeId>(m.value)))
            e->field.owner = static_cast<NodeId>(m.value);
        return;
      }

      case MsgType::PresentClear: {
        // Forwarded from the home: clear the leaver's flag and
        // confirm to the leaver so it may re-acquire the block.
        if (e && cache::isOwned(e->field.state)) {
            e->field.present.reset(m.requester);
            maybeExclusive(*e, me);
            Msg ack;
            ack.type = MsgType::PresentClearAck;
            ack.src = me;
            ack.dst = m.requester;
            ack.blk = m.blk;
            send(ack);
        } else {
            Msg nack;
            nack.type = MsgType::NackNotOwner;
            nack.src = me;
            nack.dst = homeOf(m.blk);
            nack.toMemory = true;
            nack.blk = m.blk;
            nack.requester = m.requester;
            send(nack);
        }
        return;
      }

      case MsgType::PresentClearAck: {
        cs.clearPending.erase(m.blk);
        return;
      }

      case MsgType::OfferOwner: {
        if (crashEnabled() && deadNodes.test(m.src)) {
            // A dead evictor's offer: accepting would pin the
            // block for a transfer that can never come.
            return;
        }
        bool acceptable = e && !cs.isPinned(m.blk) &&
            (e->field.state == State::UnOwned ||
             (e->field.state == State::Invalid &&
              e->field.owner != invalidNode));
        Msg reply;
        reply.type = acceptable ? MsgType::OfferAck
            : MsgType::OfferNack;
        reply.src = me;
        reply.dst = m.src;
        reply.blk = m.blk;
        if (acceptable)
            cs.pinnedOffer.insert(m.blk); // reserved for transfer
        send(reply);
        return;
      }

      case MsgType::OfferAck: {
        if (cs.phase != Phase::WaitOffer || !cs.evicting ||
            m.blk != cs.victimBlk ||
            m.src != cs.candidates[cs.candIdx]) {
            // The offeree pinned the block for a transfer that is
            // not coming; only its own eviction unpins it. Possible
            // only under plans faulting control messages - the
            // watchdog's department, not worth a revoke handshake.
            ++ctrs.staleReplies;
            return;
        }
        Entry *ve = findEntry(me, cs.victimBlk);
        panic_if(!ve, "offer ack without a victim");
        ++ctrs.ownershipTransfers;

        Mode mode = cache::modeOf(ve->field.state);
        cache::StateField field = ve->field;
        field.present.reset(me); // we are leaving
        field.owner = invalidNode;
        field.state = (mode == Mode::DistributedWrite)
            ? State::OwnedNonExclDW : State::OwnedNonExclGR;

        if (mode == Mode::GlobalRead) {
            announceScratch.clear();
            const DynamicBitset &p = field.present;
            for (std::size_t i = p.findFirst(); i < p.size();
                 i = p.findNext(i)) {
                if (i != m.src)
                    announceScratch.push_back(
                        static_cast<NodeId>(i));
            }
            sendMulticastMsg(
                MsgType::OwnerAnnounce, me, announceScratch,
                params.sizes.ownerIdPayload(numCaches()),
                cs.victimBlk, 0, m.src, m.src);
        }

        Msg x;
        x.type = (mode == Mode::DistributedWrite)
            ? MsgType::StateXfer : MsgType::StateCopyXfer;
        x.src = me;
        x.dst = m.src;
        x.blk = cs.victimBlk;
        x.requester = invalidNode; // hand-off, not a request reply
        x.field = field;
        x.flag = true; // eviction busy released by new owner
        x.tok = cs.evictToken; // ... with this eviction's token
        if (mode == Mode::GlobalRead)
            x.data = ve->data;
        send(x);

        cs.array.evict(*ve);
        endEviction(me);
        cs.evicting = false;
        cs.phase = Phase::Idle;
        startAccess(me);
        return;
      }

      case MsgType::OfferNack: {
        if (cs.phase != Phase::WaitOffer || !cs.evicting ||
            m.blk != cs.victimBlk ||
            m.src != cs.candidates[cs.candIdx]) {
            ++ctrs.staleReplies;
            return;
        }
        ++ctrs.handoffNacks;
        ++cs.candIdx;
        sendNextOffer(me);
        return;
      }

      case MsgType::RecoveryPurge: {
        // Directory reconstruction probe (m.src = the recovering
        // home): drop any copy or stale OWNER pointer of the block
        // and acknowledge; a surviving owner ships its copy back,
        // since that copy - not memory - is authoritative when the
        // crashed node wedged the block mid-transfer.
        ++ctrs.purges;
        trace(TraceEvent::Purge, me, m.src, 0, m.blk, 0);
        Msg ack;
        ack.type = MsgType::RecoveryAck;
        ack.src = me;
        ack.dst = m.src;
        ack.toMemory = true;
        ack.blk = m.blk;
        ack.requester = me;
        if (e) {
            if (cache::isOwned(e->field.state)) {
                ack.flag = e->field.modified;
                ack.data = e->data;
            }
            cs.array.evict(*e);
        }
        cs.pinnedOffer.erase(m.blk);
        cs.clearPending.erase(m.blk);
        if (cs.evicting && cs.victimBlk == m.blk) {
            // The victim vanished with the reconstruction: nothing
            // left to hand over. Abandon the eviction and re-run
            // the access that triggered it.
            cs.pendingAcks = 0;
            cs.ackFrom.clear();
            disarmTimeout(me);
            endEviction(me);
            cs.evicting = false;
            cs.phase = Phase::Idle;
            cs.attempts = 0;
            send(ack);
            startAccess(me);
            return;
        }
        if (cs.active && cs.phase != Phase::Commit &&
            params.geometry.blockOf(cs.ref.addr) == m.blk) {
            // A serve issued before the fence may still be in
            // flight; mark the transaction so such a reply
            // restarts it instead of installing pre-crash state,
            // and keep a placeholder entry for it to land in.
            cs.purged.insert(m.blk);
            if (!findEntry(me, m.blk)) {
                Entry *fresh = cs.array.pickVictim(m.blk);
                if (!fresh->occupied)
                    cs.array.install(*fresh, m.blk);
            }
        }
        send(ack);
        return;
      }

      case MsgType::RecoveryNack: {
        // The home rebuilt the block our stalled attempt was
        // anchored to: restart with a fresh sequence number. Safe
        // because the reconstruction fence discarded whatever
        // serve the old attempt had in flight.
        if (!cs.active) {
            ++ctrs.staleReplies;
            return;
        }
        if (cs.evicting && cs.phase == Phase::WaitEvictAck &&
            cs.victimBlk == m.blk) {
            // Re-issue the eviction handshake from scratch.
            cs.attempts = 0;
            Msg er;
            er.type = MsgType::EvictReq;
            er.src = me;
            er.dst = homeOf(m.blk);
            er.toMemory = true;
            er.blk = m.blk;
            er.requester = me;
            er.seq = cs.txSeq = ++cs.seqGen;
            cs.lastReq = er;
            send(er);
            armTimeout(me);
            return;
        }
        if (params.geometry.blockOf(cs.ref.addr) == m.blk &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitPointer ||
             cs.phase == Phase::WaitOwnXfer)) {
            restartPurgedTx(me, m);
            return;
        }
        ++ctrs.staleReplies;
        return;
      }

      case MsgType::EvictAck: {
        if (cs.phase == Phase::WaitEvictAck && cs.evicting &&
            m.blk == cs.victimBlk && m.seq == cs.txSeq) {
            cs.evictToken = m.tok;
            disarmTimeout(me);
            continueEviction(me);
            return;
        }
        if (cs.evicting && m.blk == cs.victimBlk &&
            m.tok == cs.evictToken) {
            // Duplicate of the grant we are already acting on.
            ++ctrs.staleReplies;
            return;
        }
        // Grant for an eviction that already finished (a retried
        // EvictReq drained after the original completed): the home
        // holds a fresh busy period for it; release it, touching
        // nothing.
        ++ctrs.staleReplies;
        Msg done;
        done.type = MsgType::EvictDone;
        done.src = me;
        done.dst = homeOf(m.blk);
        done.toMemory = true;
        done.blk = m.blk;
        done.tok = m.tok;
        done.flag = false;
        send(done);
        return;
      }

      default:
        panic("cache %u got unexpected message %s", me,
              msgTypeName(m.type));
    }
}

// ---------------------------------------------------------------
// Memory side
// ---------------------------------------------------------------

void
ConcurrentProtocol::processHomeRequest(HomeState &h, const Msg &m)
{
    BlockId blk = m.blk;
    if (crashEnabled() && deadNodes.test(m.requester)) {
        // The requester died with this request in flight (or
        // queued). Accepting it would mint a busy period nobody
        // can ever release; serving it would be answered into the
        // void. Drop it - a restarted node never reuses sequence
        // numbers, so nothing downstream expects this request.
        return;
    }
    if (h.busy.contains(blk)) {
        std::vector<Msg> &q = h.waiting[blk];
        for (Msg &w : q) {
            if (w.requester == m.requester) {
                // A retry superseding its still-queued original (a
                // cpu has one transaction, hence at most one live
                // request per block): replace in place so the
                // request is never served twice from the queue.
                w = m;
                ++ctrs.dupRequests;
                trace(TraceEvent::HomeDup, m.dst, m.requester,
                      static_cast<std::uint8_t>(m.type), m.seq, blk);
                return;
            }
        }
        q.push_back(m);
        ++ctrs.homeQueued;
        trace(TraceEvent::HomeQueue, m.dst, m.requester,
              static_cast<std::uint8_t>(m.type), m.seq, blk);
        return;
    }

    trace(TraceEvent::HomeAccept, m.dst, m.requester,
          static_cast<std::uint8_t>(m.type), m.seq, blk);

    if (m.type == MsgType::EvictReq) {
        h.busy.insert(blk);
        std::uint64_t token = ++h.busyTokenGen;
        h.busyToken[blk] = token;
        if (crashEnabled()) {
            h.busyReleaser[blk] = m.src;
            h.busySince[blk] = eq.curTick();
        }
        Msg ack;
        ack.type = MsgType::EvictAck;
        ack.src = h.mem.port();
        ack.dst = m.src;
        ack.blk = blk;
        ack.seq = m.seq;
        ack.tok = token;
        send(ack);
        return;
    }

    NodeId owner = h.mem.blockStore().owner(blk);
    NodeId r = m.requester;

    if (crashEnabled() && owner != invalidNode &&
        deadNodes.test(owner)) {
        // The registered owner is dead: park the request and
        // reconstruct the block instead of forwarding into the
        // void. (The stabilization sweep would get here anyway;
        // this reacts at first touch.)
        h.waiting[blk].push_back(m);
        ++ctrs.homeQueued;
        trace(TraceEvent::HomeQueue, m.dst, m.requester,
              static_cast<std::uint8_t>(m.type), m.seq, blk);
        startRecovery(h, blk, owner);
        return;
    }

    if (owner == invalidNode) {
        // No cached copy anywhere: serve from memory under this
        // block's busy period. Ownership is registered only when
        // the requester's Unblock (flag=true) confirms it accepted
        // the grant: a requester that a recovery restart already
        // moved past refuses the grant and releases the busy with
        // flag=false, leaving the directory unowned instead of
        // pointing at a cache with no copy (the liveness checker
        // finds that dangling registration as a weakly fair
        // forward/suspect/restart cycle on the crash config).
        h.busy.insert(blk);
        std::uint64_t token = ++h.busyTokenGen;
        h.busyToken[blk] = token;
        if (crashEnabled()) {
            h.busyReleaser[blk] = r;
            h.busySince[blk] = eq.curTick();
        }
        if (m.type == MsgType::LoadReq) {
            checkReadSample(params.geometry.baseOf(blk) + m.offset,
                            h.mem.readWord(blk, m.offset));
        }
        Msg reply;
        reply.type = MsgType::DataBlock;
        reply.src = h.mem.port();
        reply.dst = r;
        reply.blk = blk;
        reply.data = h.mem.readBlock(blk);
        // GR is the safe post-recovery mode: its owner never has
        // to trust pre-crash remote copies (DESIGN.md 5f).
        reply.field.state = cache::ownedState(
            (crashEnabled() && h.recoveredGR.contains(blk))
                ? Mode::GlobalRead : params.defaultMode,
            true);
        reply.flag = true; // busy held until the requester unblocks
        reply.seq = m.seq;
        reply.tok = token;
        send(reply);
        return;
    }

    // Forward to the owner under this block's busy period.
    h.busy.insert(blk);
    std::uint64_t token = ++h.busyTokenGen;
    h.busyToken[blk] = token;
    Msg fwd;
    switch (m.type) {
      case MsgType::LoadReq:
        fwd.type = MsgType::LoadFwd;
        break;
      case MsgType::LoadOwnReq:
        fwd.type = MsgType::LoadOwnFwd;
        break;
      case MsgType::OwnReq:
        fwd.type = MsgType::OwnFwd;
        break;
      default:
        panic("unexpected home request %s", msgTypeName(m.type));
    }
    if (crashEnabled()) {
        h.busyReleaser[blk] = r;
        h.busySince[blk] = eq.curTick();
    }
    fwd.src = h.mem.port();
    fwd.dst = owner;
    fwd.blk = blk;
    fwd.offset = m.offset;
    fwd.requester = r;
    fwd.flag = true; // busy held until the requester unblocks
    fwd.seq = m.seq; // echoed end-to-end back to the requester
    fwd.tok = token;
    send(fwd);
}

void
ConcurrentProtocol::drainHomeQueue(HomeState &h, BlockId blk)
{
    // Re-find after every request: processing can queue onto this
    // block again and rehash the waiting table.
    std::vector<Msg> *q = h.waiting.find(blk);
    while (q && !q->empty() && !h.busy.contains(blk)) {
        Msg m = std::move(q->front());
        q->erase(q->begin());
        processHomeRequest(h, m);
        q = h.waiting.find(blk);
    }
    if (q && q->empty())
        h.waiting.erase(blk);
}

void
ConcurrentProtocol::handleMemMsg(const Msg &m)
{
    HomeState &h = homes[m.dst];
    BlockId blk = m.blk;

    switch (m.type) {
      case MsgType::LoadReq:
      case MsgType::LoadOwnReq:
      case MsgType::OwnReq:
      case MsgType::EvictReq: {
        // Per-requester duplicate suppression: each operation
        // carries a fresh sequence number, operations from one cpu
        // are serialized, and timeout retries resend the same seq,
        // so an older-or-equal arrival can only be an injected
        // duplicate, a timeout resend whose original got through,
        // or a superseded operation's late copy -- all safe to drop.
        std::uint64_t &seen = h.seqSeen[m.requester];
        if (m.seq <= seen) {
            ++ctrs.dupRequests;
            trace(TraceEvent::HomeDup, m.dst, m.requester,
                  static_cast<std::uint8_t>(m.type), m.seq, blk);
            return;
        }
        seen = m.seq;
        processHomeRequest(h, m);
        return;
      }

      case MsgType::Unblock: {
        // Only the release carrying the busy period's own token
        // counts; duplicates and releases from superseded serves
        // carry a dead token and must not unlock a later period.
        const std::uint64_t *tok = h.busyToken.find(blk);
        if (!tok || *tok != m.tok) {
            ++ctrs.staleUnblocks;
            return;
        }
        h.busyToken.erase(blk);
        if (crashEnabled()) {
            h.busyReleaser.erase(blk);
            h.busySince.erase(blk);
        }
        if (m.flag)
            h.mem.blockStore().setOwner(blk, m.requester);
        h.busy.erase(blk);
        drainHomeQueue(h, blk);
        return;
      }

      case MsgType::EvictDone: {
        const std::uint64_t *tok = h.busyToken.find(blk);
        if (!tok || *tok != m.tok) {
            // A duplicate of a finished eviction's release: its
            // write-back/clear already happened; touching memory
            // again could clobber a newer owner's state.
            ++ctrs.staleUnblocks;
            return;
        }
        h.busyToken.erase(blk);
        if (!m.data.empty()) {
            if (crashEnabled()) {
                // Respect per-word durable stamps: a write-back
                // must not clobber a fresher durable word that
                // raced past it.
                for (unsigned off = 0;
                     off < static_cast<unsigned>(m.data.size());
                     ++off)
                    applyDurableWord(h, blk, off, m.data[off],
                                     m.seq);
            } else {
                h.mem.writeBlock(blk, m.data);
            }
        }
        if (crashEnabled()) {
            h.busyReleaser.erase(blk);
            h.busySince.erase(blk);
        }
        if (m.flag)
            h.mem.blockStore().clear(blk);
        h.busy.erase(blk);
        drainHomeQueue(h, blk);
        return;
      }

      case MsgType::SuspectOwner: {
        if (!crashEnabled())
            return;
        if (h.recovering.contains(blk)) {
            // Already reconstructing: remember the suspecter so it
            // gets its restart hint when the rebuild finishes.
            RecoveryCtx &ctx = h.recoveryCtx[blk];
            if (std::find(ctx.suspecters.begin(),
                          ctx.suspecters.end(),
                          m.requester) == ctx.suspecters.end())
                ctx.suspecters.push_back(m.requester);
            return;
        }
        NodeId owner = h.mem.blockStore().owner(blk);
        auto rel = h.busyReleaser.find(blk);
        bool owner_dead =
            owner != invalidNode && deadNodes.test(owner);
        bool releaser_dead = h.busy.contains(blk) &&
            rel != h.busyReleaser.end() &&
            deadNodes.test(rel->second);
        if (!owner_dead && !releaser_dead) {
            if (!h.busy.contains(blk)) {
                // Orphaned waiter: its request was consumed (so
                // retries are duplicate-suppressed) but whatever
                // served it died with the crash, and with no busy
                // period there is no forward still in flight that a
                // restart could orphan. Hand it a direct restart
                // hint.
                ++ctrs.recoveryNacks;
                Msg nack;
                nack.type = MsgType::RecoveryNack;
                nack.src = h.mem.port();
                nack.dst = m.requester;
                nack.blk = blk;
                nack.requester = m.requester;
                send(nack);
                return;
            }
            // Busy with live anchors. A healthy busy period lasts
            // a few round trips; one that has outlived the
            // suspecter's whole retry ladder is wedged even though
            // nobody died on paper - e.g. an eviction hand-off
            // whose ownership transfer was destined for a node
            // that crashed with it in flight (neither the evictor
            // nor the block store ever names the acceptor).
            // Otherwise the ordinary retry/stale machinery wins:
            // restarting an attempt whose serve may still be in
            // flight would orphan what that serve carries.
            auto since = h.busySince.find(blk);
            bool wedged = since != h.busySince.end() &&
                eq.curTick() - since->second >
                    params.crashSuspectDelay;
            if (!wedged) {
                ++ctrs.staleReplies;
                return;
            }
        }
        ++ctrs.suspects;
        startRecovery(h, blk,
                      owner_dead ? owner
                                 : rel != h.busyReleaser.end()
                                       ? rel->second : owner);
        RecoveryCtx &ctx = h.recoveryCtx[blk];
        if (std::find(ctx.suspecters.begin(), ctx.suspecters.end(),
                      m.requester) == ctx.suspecters.end())
            ctx.suspecters.push_back(m.requester);
        return;
      }

      case MsgType::RecoveryAck: {
        auto it = h.recoveryCtx.find(blk);
        if (it == h.recoveryCtx.end() ||
            !it->second.pending.contains(m.requester))
            return; // duplicate or multicast-overshoot echo
        RecoveryCtx &ctx = it->second;
        ctx.pending.erase(m.requester);
        ++ctx.acks;
        if (!m.data.empty()) {
            // At most one surviving cache can have held the block
            // owned; its copy is the authoritative one.
            ctx.data = m.data;
            ctx.haveData = true;
        }
        if (ctx.pending.empty())
            finishRecovery(h, blk);
        return;
      }

      case MsgType::DurableWrite: {
        // Crash-mode write-through: commit the word at the home so
        // an owner crash cannot lose a committed write. The stamp
        // (send tick) keeps a delayed older word from overwriting
        // a newer one; ownership hand-offs order stamps causally.
        applyDurableWord(h, blk, m.offset, m.value, m.seq);
        return;
      }

      case MsgType::PresentClear: {
        NodeId owner = h.mem.blockStore().owner(blk);
        if (owner == invalidNode) {
            // Block fully evicted meanwhile: nothing to clear, but
            // the leaver still waits for its acknowledgement.
            Msg ack;
            ack.type = MsgType::PresentClearAck;
            ack.src = h.mem.port();
            ack.dst = m.requester;
            ack.blk = blk;
            send(ack);
            return;
        }
        Msg fwd = m;
        fwd.src = h.mem.port();
        fwd.dst = owner;
        fwd.toMemory = false;
        send(fwd);
        return;
      }

      case MsgType::NackNotOwner: {
        // A PresentClear forward missed (ownership moved): retry
        // against the current owner after a short delay.
        ++ctrs.presentClearRetries;
        Msg retry;
        retry.type = MsgType::PresentClear;
        retry.src = m.dst;
        retry.dst = m.dst;
        retry.toMemory = true;
        retry.blk = blk;
        retry.requester = m.requester;
        scheduleLocal(std::move(retry), 20);
        return;
      }

      default:
        panic("memory %u got unexpected message %s", m.dst,
              msgTypeName(m.type));
    }
}

// ---------------------------------------------------------------
// Timeouts, retry, liveness watchdog
// ---------------------------------------------------------------

void
ConcurrentProtocol::armTimeout(NodeId cpu)
{
    if (params.timeoutBase == 0 || _aborted)
        return;
    CpuState &cs = cpus[cpu];
    if (vControlled) {
        // The timer never reaches the event queue (nor the jitter
        // RNG): firing is an explorer action guarded by the seq.
        cs.timeoutArmed = true;
        cs.vTimeoutSeq = cs.txSeq;
        return;
    }
    if (cs.timeoutArmed)
        eq.deschedule(cs.timeoutEv);
    // Bounded exponential backoff with jitter: retry i waits
    // timeoutBase << i (capped), plus up to a quarter extra so
    // synchronized retry storms decorrelate.
    unsigned shift = std::min(cs.attempts, 20u);
    Tick delay = std::min(params.timeoutBase << shift,
                          params.timeoutCap);
    delay += retryRng.uniform(0, delay / 4);
    mx.sample(mid.retryBackoff, delay);
    std::uint64_t seq = cs.txSeq;
    cs.timeoutEv = eq.scheduleIn(
        [this, cpu, seq] { onTimeout(cpu, seq); }, delay);
    cs.timeoutArmed = true;
}

void
ConcurrentProtocol::disarmTimeout(NodeId cpu)
{
    CpuState &cs = cpus[cpu];
    if (vControlled) {
        cs.timeoutArmed = false;
        return;
    }
    if (cs.timeoutArmed) {
        eq.deschedule(cs.timeoutEv);
        cs.timeoutArmed = false;
    }
}

void
ConcurrentProtocol::onTimeout(NodeId cpu, std::uint64_t seq)
{
    CpuState &cs = cpus[cpu];
    cs.timeoutArmed = false;
    // A timer for a superseded attempt (or a settled transaction)
    // is a no-op: accepting a late reply is always preferred over
    // retrying.
    if (_aborted || !cs.active || cs.txSeq != seq)
        return;
    ++ctrs.timeouts;
    trace(TraceEvent::Timeout, cpu, cpu,
          static_cast<std::uint8_t>(cs.phase), cs.opId, cs.attempts);
    if (cs.attempts >= params.maxRetries) {
        if (crashEnabled() && cs.phase == Phase::WaitPointer) {
            // The pointed-at owner is unreachable (likely dead):
            // fall back to the home exactly like a pointer NACK
            // would. A late Datum of the abandoned attempt is
            // absorbed by the stale-reply machinery.
            cs.pointerRetries = 2;
            cs.pinnedTx.erase(params.geometry.blockOf(cs.ref.addr));
            cs.phase = Phase::Idle;
            cs.attempts = 0;
            startAccess(cpu);
            return;
        }
        if (crashEnabled() &&
            (cs.phase == Phase::WaitHome ||
             cs.phase == Phase::WaitOwnXfer ||
             cs.phase == Phase::WaitEvictAck)) {
            // Retries exhausted on a request the home has seen:
            // raise a suspicion so the home can check whether the
            // block's anchor (owner or busy releaser) died, and
            // keep retrying while it investigates.
            BlockId sblk = cs.phase == Phase::WaitEvictAck
                ? cs.victimBlk
                : params.geometry.blockOf(cs.ref.addr);
            Msg sus;
            sus.type = MsgType::SuspectOwner;
            sus.src = cpu;
            sus.dst = homeOf(sblk);
            sus.toMemory = true;
            sus.blk = sblk;
            sus.requester = cpu;
            send(sus);
            cs.attempts = 0;
            armTimeout(cpu);
            return;
        }
        ++ctrs.retriesExhausted;
        return; // wedged for good: the watchdog reports it
    }
    ++cs.attempts;
    BlockId blk = params.geometry.blockOf(cs.ref.addr);

    switch (cs.phase) {
      case Phase::WaitPointer:
      case Phase::WaitHome:
      case Phase::WaitOwnXfer:
      case Phase::WaitEvictAck:
        // Resend the outstanding request verbatim (same seq). If
        // the original merely crawled -- still in flight, queued
        // behind a busy period, or its serve already under way --
        // the duplicate is suppressed at the home and the late
        // serve still matches txSeq. Only a request that truly
        // vanished makes the resend visible. Never restart with a
        // fresh seq here: abandoning an attempt whose serve is in
        // flight would orphan the ownership or present bit that
        // serve carries.
        ++ctrs.retries;
        trace(TraceEvent::Retry, cpu, cs.lastReq.dst,
              static_cast<std::uint8_t>(cs.lastReq.type), cs.opId,
              cs.attempts);
        send(cs.lastReq);
        armTimeout(cpu);
        return;

      case Phase::WaitDwAcks:
      case Phase::WaitInvalAcks: {
        // Re-send to the copies that have not answered. Updates
        // and invalidations are idempotent and the ack filter
        // (ackFrom) absorbs duplicate acknowledgements.
        ++ctrs.retries;
        trace(TraceEvent::Retry, cpu, cpu,
              static_cast<std::uint8_t>(cs.phase), cs.opId,
              cs.attempts);
        std::vector<NodeId> rest;
        const DynamicBitset &a = cs.ackFrom;
        for (std::size_t i = a.findFirst(); i < a.size();
             i = a.findNext(i)) {
            rest.push_back(static_cast<NodeId>(i));
        }
        if (cs.phase == Phase::WaitDwAcks) {
            sendMulticastMsg(MsgType::DwUpdate, cpu, rest,
                             params.sizes.wordBits, blk,
                             params.geometry.offsetOf(cs.ref.addr),
                             cs.ref.value, cpu);
        } else {
            sendMulticastMsg(MsgType::Invalidate, cpu, rest, 0,
                             cs.victimBlk, 0, 0, cpu);
        }
        armTimeout(cpu);
        return;
      }

      default:
        // WaitOffer (re-offering could strand an accepted pin) and
        // deferred Idle states have nothing safe to re-send; keep
        // the timer running so coverage resumes on a phase change.
        armTimeout(cpu);
        return;
    }
}

void
ConcurrentProtocol::watchdogTick()
{
    watchdogArmed = false;
    if (_aborted || refsOutstanding == 0)
        return;
    Tick now = eq.curTick();
    std::vector<NodeId> dead;
    for (NodeId c = 0; c < cpus.size(); ++c) {
        const CpuState &cs = cpus[c];
        if (cs.active && now - cs.issueTick > params.watchdogAge)
            dead.push_back(c);
    }
    if (dead.empty()) {
        watchdogEv = eq.scheduleIn([this] { watchdogTick(); },
                                   params.watchdogPeriod);
        watchdogArmed = true;
        return;
    }
    ctrs.watchdogDeadlocks += dead.size();
    for (NodeId c : dead) {
        trace(TraceEvent::WatchdogFlag, c, c,
              static_cast<std::uint8_t>(cpus[c].phase), cpus[c].opId,
              now - cpus[c].issueTick);
    }
    _deadlockReport = buildDeadlockReport(dead);
    warn("concurrent watchdog: %zu transaction(s) exceeded age "
         "%llu at tick %llu - protocol deadlock\n%s",
         dead.size(),
         static_cast<unsigned long long>(params.watchdogAge),
         static_cast<unsigned long long>(now),
         _deadlockReport.c_str());
    // Abort gracefully: every self-rescheduling path checks the
    // flag, so the event queue drains and run() reports instead of
    // spinning forever.
    _aborted = true;
}

std::string
ConcurrentProtocol::buildDeadlockReport(
    const std::vector<NodeId> &dead)
{
    Tick now = eq.curTick();
    std::string out;
    if (crashEnabled()) {
        out += "  crashed nodes:";
        bool any = false;
        for (std::size_t n = deadNodes.findFirst();
             n < deadNodes.size(); n = deadNodes.findNext(n)) {
            out += csprintf(" %zu", n);
            any = true;
        }
        if (!any)
            out += " none";
        std::size_t rec = 0;
        for (const HomeState &h : homes)
            rec += h.recovering.size();
        out += csprintf(" (reconstructions in flight: %zu)\n", rec);
    }
    for (NodeId c : dead) {
        const CpuState &cs = cpus[c];
        BlockId blk = params.geometry.blockOf(cs.ref.addr);
        out += csprintf(
            "  cpu%u: %c @%llu blk=%llu phase=%s age=%llu "
            "attempts=%u seq=%llu evicting=%d victim=%llu "
            "pendingAcks=%u pinsTx=%zu pinsOffer=%zu "
            "clearPending=%zu\n",
            c, cs.ref.isWrite ? 'W' : 'R',
            static_cast<unsigned long long>(cs.ref.addr),
            static_cast<unsigned long long>(blk),
            phaseName(cs.phase),
            static_cast<unsigned long long>(now - cs.issueTick),
            cs.attempts,
            static_cast<unsigned long long>(cs.txSeq),
            cs.evicting,
            static_cast<unsigned long long>(cs.victimBlk),
            cs.pendingAcks, cs.pinnedTx.size(),
            cs.pinnedOffer.size(), cs.clearPending.size());
        const Entry *e = findEntry(c, blk);
        if (e) {
            out += csprintf(
                "        entry: state=%s owner=%u modified=%d "
                "present=%zu\n",
                cache::stateName(e->field.state), e->field.owner,
                e->field.modified, e->field.present.count());
        } else {
            out += "        entry: none\n";
        }
        const HomeState &h = homes[homeOf(blk)];
        const std::uint64_t *tok = h.busyToken.find(blk);
        const std::vector<Msg> *q = h.waiting.find(blk);
        out += csprintf(
            "        home%u: busy=%d token=%llu queued=%zu "
            "bsOwner=%u\n",
            homeOf(blk), h.busy.contains(blk),
            static_cast<unsigned long long>(tok ? *tok : 0),
            q ? q->size() : 0,
            h.mem.blockStore().owner(blk));
        // Replay the last trace records touching this cpu: the
        // state snapshot says where the transaction is stuck, the
        // timeline says how it got there.
        if (_tracer.enabled()) {
            constexpr std::size_t HistN = 16;
            std::vector<TraceRecord> hist;
            _tracer.forEach([&](const TraceRecord &r) {
                if (r.node == c || r.node2 == c) {
                    if (hist.size() == HistN)
                        hist.erase(hist.begin());
                    hist.push_back(r);
                }
            });
            out += csprintf("        last %zu event(s):\n",
                            hist.size());
            for (const TraceRecord &r : hist) {
                const auto ev = static_cast<TraceEvent>(r.kind);
                const char *cls = "";
                switch (ev) {
                  case TraceEvent::Send:
                  case TraceEvent::Deliver:
                  case TraceEvent::Forward:
                  case TraceEvent::Nack:
                  case TraceEvent::Retry:
                  case TraceEvent::HomeAccept:
                  case TraceEvent::HomeQueue:
                  case TraceEvent::HomeDup:
                    cls = msgTypeName(static_cast<MsgType>(r.cls));
                    break;
                  case TraceEvent::Issue:
                  case TraceEvent::Commit:
                  case TraceEvent::Complete:
                  case TraceEvent::EvictEnd:
                    cls = opClassName(static_cast<OpClass>(r.cls));
                    break;
                  case TraceEvent::Timeout:
                  case TraceEvent::WatchdogFlag:
                    cls = phaseName(static_cast<Phase>(r.cls));
                    break;
                  default:
                    break;
                }
                out += csprintf(
                    "          t=%llu %s %u->%u %s seq=%llu "
                    "arg=%llu\n",
                    static_cast<unsigned long long>(r.tick),
                    traceEventName(ev), r.node, r.node2, cls,
                    static_cast<unsigned long long>(r.seq),
                    static_cast<unsigned long long>(r.arg));
            }
        } else {
            out += "        (no event history: tracing disabled "
                   "or compiled out)\n";
        }
    }
    std::size_t inflight = 0;
    for (const MsgSlot &s : msgSlab) {
        if (s.refs > 0)
            ++inflight;
    }
    out += csprintf("  in-flight message slots: %zu (slab %zu)\n",
                    inflight, msgSlab.size());
    // Health tail: how much history the diagnosis above rests on
    // (a saturated ring means the timeline replays are partial),
    // which message classes the dead-node sink swallowed, and a
    // fresh scalar-metrics snapshot of the wedged system.
    if (_tracer.enabled()) {
        out += csprintf(
            "  trace ring: %llu recorded, %llu lost to overwrite\n",
            static_cast<unsigned long long>(_tracer.recorded()),
            static_cast<unsigned long long>(_tracer.dropped()));
    }
    if (crashEnabled()) {
        const FaultCounters &fc = injector.counters();
        out += "  crash-masked deliveries:";
        for (std::size_t c = 0; c < FaultCounters::N; ++c) {
            out += csprintf(
                " %s=%llu",
                faultClassName(static_cast<FaultClass>(c)),
                static_cast<unsigned long long>(fc.crashMasked[c]));
        }
        out += "\n";
    }
    if (mx.enabled()) {
        metricsProbe();
        out += csprintf("  metrics @%llu:",
                        static_cast<unsigned long long>(now));
        for (const MetricSeries &s : mreg.series()) {
            if (s.kind != MetricKind::Counter &&
                s.kind != MetricKind::Gauge) {
                continue;
            }
            out += csprintf(" %s=%llu", s.name.c_str(),
                            static_cast<unsigned long long>(
                                mx.values()[s.slot]));
        }
        out += "\n";
    }
    return out;
}

// ---------------------------------------------------------------
// Crash-stop failures and directory reconstruction
// ---------------------------------------------------------------

void
ConcurrentProtocol::crashNode(NodeId n, Tick restart_tick)
{
    if (_aborted || deadNodes.test(n))
        return;
    ++ctrs.crashes;
    trace(TraceEvent::Crash, n, n, 0, 0, restart_tick);
    deadNodes.set(n);

    // The failed controller loses everything instantly: tags,
    // state fields, data, and whatever transaction it was running.
    CpuState &cs = cpus[n];
    disarmTimeout(n);
    cs.array.reset();
    std::uint64_t lost = cs.active ? 1 : 0;
    if (restart_tick == 0) {
        // Never coming back: its queued references are lost too.
        lost += cs.queued();
        cs.queue.clear();
        cs.head = 0;
    }
    cs.active = false;
    cs.phase = Phase::Idle;
    cs.attempts = 0;
    cs.pointerRetries = 0;
    cs.pendingAcks = 0;
    cs.ackFrom.clear();
    cs.evicting = false;
    cs.candidates.clear();
    cs.candIdx = 0;
    cs.pinnedTx.clear();
    cs.pinnedOffer.clear();
    cs.clearPending.clear();
    cs.purged.clear();
    // seqGen/opGen deliberately survive: the homes' duplicate
    // filters are monotone, so a cold rejoin must not reuse
    // sequence numbers.
    ctrs.refsLost += lost;
    refsOutstanding -= lost;
    if (refsOutstanding == 0 && watchdogArmed) {
        eq.deschedule(watchdogEv);
        watchdogArmed = false;
    }

    // Perfect-failure-detector half of the model (DESIGN.md 5f):
    // survivors learn of the death at once and scrub their local
    // references to it - present bits, dangling OWNER pointers,
    // and ack/hand-off waits that would otherwise spin on a node
    // that can no longer answer.
    for (NodeId c = 0; c < cpus.size(); ++c) {
        if (c == n || deadNodes.test(c))
            continue;
        CpuState &lc = cpus[c];
        lc.array.forEachOccupied([&](Entry &e) {
            if (cache::isOwned(e.field.state) &&
                e.field.present.test(n)) {
                e.field.present.reset(n);
                maybeExclusive(e, c);
            } else if (e.field.state == State::Invalid &&
                       e.field.owner == n) {
                lc.array.evict(e);
            }
        });
        if ((lc.phase == Phase::WaitDwAcks ||
             lc.phase == Phase::WaitInvalAcks) &&
            lc.ackFrom.test(n)) {
            lc.ackFrom.reset(n);
            if (--lc.pendingAcks == 0) {
                if (lc.phase == Phase::WaitDwAcks) {
                    completeRef(c);
                } else {
                    Entry *ve = findEntry(c, lc.victimBlk);
                    finishEviction(c, true,
                                   ve && ve->field.modified);
                }
            }
        } else if (lc.phase == Phase::WaitOffer && lc.evicting &&
                   lc.candIdx < lc.candidates.size() &&
                   lc.candidates[lc.candIdx] == n) {
            ++ctrs.handoffNacks;
            ++lc.candIdx;
            sendNextOffer(c);
        }
    }

    cs.vCommitPending = false;
    cs.vDeferred = false;

    // An in-flight reconstruction must not wait for the newly dead
    // node's purge answer. (Controlled mode: the RecoveryNacks a
    // finished reconstruction sends originate at homes.)
    bool saved_role = vMemSend;
    vMemSend = true;
    for (HomeState &h : homes) {
        std::vector<BlockId> done;
        for (auto &[blk, ctx] : h.recoveryCtx) {
            if (ctx.pending.contains(n)) {
                ctx.pending.erase(n);
                if (ctx.pending.empty())
                    done.push_back(blk);
            }
        }
        for (BlockId blk : done)
            finishRecovery(h, blk);
    }
    vMemSend = saved_role;

    // The homes sweep the dead node's ownerships one stabilization
    // window later - late enough that everything it sent before
    // dying has drained, so reconstruction sees a settled picture.
    if (vControlled) {
        // The sweep fires as an explicit action so the explorer
        // covers pre- and post-stabilization interleavings.
        if (std::find(vSweepPending.begin(), vSweepPending.end(),
                      n) == vSweepPending.end())
            vSweepPending.push_back(n);
        return;
    }
    eq.scheduleIn([this, n] { homeSweepDead(n); },
                  params.crashSuspectDelay);
}

void
ConcurrentProtocol::rejoinNode(NodeId n)
{
    if (_aborted || !deadNodes.test(n))
        return;
    ++ctrs.rejoins;
    deadNodes.reset(n);
    trace(TraceEvent::Rejoin, n, n, 0, 0, 0);
    // The node comes back cold (all-Invalid cache) and simply
    // resumes its reference stream; every block it owned is being
    // (or has been) reconstructed by its home.
    issueNext(n);
}

void
ConcurrentProtocol::homeSweepDead(NodeId n)
{
    if (_aborted)
        return;
    // Runs even if the node already rejoined: it came back cold,
    // so its pre-crash ownerships are orphaned either way.
    for (HomeState &h : homes) {
        for (BlockId blk : h.mem.blockStore().ownedBy(n))
            startRecovery(h, blk, n);
        std::vector<BlockId> stuck;
        for (const auto &[blk, rel] : h.busyReleaser) {
            if (rel == n)
                stuck.push_back(blk);
        }
        for (BlockId blk : stuck)
            startRecovery(h, blk, n);
    }
}

void
ConcurrentProtocol::startRecovery(HomeState &h, BlockId blk,
                                  NodeId suspected)
{
    if (h.recovering.contains(blk))
        return;
    h.recovering.insert(blk);
    NodeId home = h.mem.port();
    trace(TraceEvent::Suspect, home, suspected, 0, blk, 0);

    RecoveryCtx ctx;
    // Fence: usurp the busy period with a fresh token so anything
    // the wedged transaction still has in flight can no longer
    // commit here, and park new requests behind the busy bit. A
    // live former releaser is remembered - it is stalled on a
    // serve that will never land and needs a restart hint.
    auto rel = h.busyReleaser.find(blk);
    if (rel != h.busyReleaser.end()) {
        if (!deadNodes.test(rel->second))
            ctx.suspecters.push_back(rel->second);
        h.busyReleaser.erase(rel);
    }
    h.busy.insert(blk);
    h.busyToken[blk] = ++h.busyTokenGen;
    h.busySince[blk] = eq.curTick();

    // Probe every live cache (including the home's own): each one
    // drops its copy / stale pointer and acknowledges; a surviving
    // owner ships its copy back.
    std::vector<NodeId> dests;
    for (NodeId c = 0; c < cpus.size(); ++c) {
        if (deadNodes.test(c))
            continue;
        ctx.pending.insert(c);
        if (c != home)
            dests.push_back(c);
    }
    h.recoveryCtx[blk] = std::move(ctx);
    sendMulticastMsg(MsgType::RecoveryPurge, home, dests, 0, blk,
                     0, 0, home);
    if (!deadNodes.test(home)) {
        Msg self;
        self.type = MsgType::RecoveryPurge;
        self.src = home;
        self.dst = home;
        self.blk = blk;
        self.requester = home;
        send(self);
    }
}

void
ConcurrentProtocol::finishRecovery(HomeState &h, BlockId blk)
{
    auto it = h.recoveryCtx.find(blk);
    if (it == h.recoveryCtx.end())
        return;
    RecoveryCtx ctx = std::move(it->second);
    h.recoveryCtx.erase(it);

    ++ctrs.rebuilds;
    trace(TraceEvent::Rebuild, h.mem.port(), 0, 0, blk, ctx.acks);

    if (ctx.haveData) {
        // A surviving owner's copy wins over memory, subject to
        // per-word durable stamps (a DurableWrite racing ahead of
        // the purge may carry a fresher word).
        for (unsigned off = 0;
             off < static_cast<unsigned>(ctx.data.size()); ++off)
            applyDurableWord(h, blk, off, ctx.data[off],
                             eq.curTick());
    }

    // Rebuild the directory root: no cached copies anywhere, so
    // the block store entry is simply cleared. The block re-enters
    // circulation in GR mode - the safe degraded mode, since a GR
    // owner never has to trust remote copies it did not create.
    h.mem.blockStore().clear(blk);
    h.recoveredGR.insert(blk);
    h.recovering.erase(blk);

    for (NodeId r : ctx.suspecters) {
        if (deadNodes.test(r))
            continue;
        // A suspecter whose request queued behind the fence needs
        // no restart hint: the drain below serves that request at
        // its current sequence number. Nacking it too would race
        // the restart against the serve - the serve would arrive
        // stale and be dropped while the block store already names
        // the suspecter as owner.
        const std::vector<Msg> *q = h.waiting.find(blk);
        bool queued = false;
        if (q) {
            for (const Msg &w : *q) {
                if (w.requester == r) {
                    queued = true;
                    break;
                }
            }
        }
        if (queued)
            continue;
        ++ctrs.recoveryNacks;
        Msg nack;
        nack.type = MsgType::RecoveryNack;
        nack.src = h.mem.port();
        nack.dst = r;
        nack.blk = blk;
        nack.requester = r;
        send(nack);
    }

    // Release the fence and serve whatever queued behind it.
    h.busyToken.erase(blk);
    h.busyReleaser.erase(blk);
    h.busySince.erase(blk);
    h.busy.erase(blk);
    drainHomeQueue(h, blk);
}

void
ConcurrentProtocol::restartPurgedTx(NodeId cpu, const Msg &m)
{
    CpuState &cs = cpus[cpu];
    ++ctrs.recoveryRestarts;
    if (m.flag) {
        // The intercepted serve carried a busy period; hand its
        // (stale) token back so the release is an explicit no-op
        // at the home rather than a leak.
        Msg ub;
        ub.type = MsgType::Unblock;
        ub.src = cpu;
        ub.dst = homeOf(m.blk);
        ub.toMemory = true;
        ub.blk = m.blk;
        ub.requester = cpu;
        ub.tok = m.tok;
        ub.flag = false;
        send(ub);
    }
    cs.purged.erase(m.blk);
    cs.attempts = 0;
    cs.pointerRetries = 0;
    cs.phase = Phase::Idle;
    disarmTimeout(cpu);
    startAccess(cpu);
}

void
ConcurrentProtocol::applyDurableWord(HomeState &h, BlockId blk,
                                     unsigned off,
                                     std::uint64_t value,
                                     Tick stamp)
{
    // Last-writer-wins by send tick. Within one owner the stamps
    // are its local commit order; across an ownership transfer the
    // new owner's first write is sent after the transfer arrived,
    // hence after every stamp the old owner issued.
    Addr a = params.geometry.baseOf(blk) + off;
    Tick *s = h.durableStamp.find(a);
    if (s && *s > stamp)
        return;
    h.durableStamp[a] = stamp;
    h.mem.writeWord(blk, off, value);
}

// ---------------------------------------------------------------
// Linearizability monitor
// ---------------------------------------------------------------

void
ConcurrentProtocol::monitorWritePending(Addr a, std::uint64_t v)
{
    pendingWrites[a].push_back(v);
}

void
ConcurrentProtocol::monitorWriteComplete(Addr a, std::uint64_t v)
{
    lastCompleted[a] = v;
    if (auto *pw = pendingWrites.find(a)) {
        auto vi = std::find(pw->begin(), pw->end(), v);
        if (vi != pw->end()) {
            *vi = pw->back();
            pw->pop_back();
        }
        if (pw->empty())
            pendingWrites.erase(a);
    }
}

void
ConcurrentProtocol::checkReadSample(Addr a, std::uint64_t v)
{
    const std::uint64_t *lc = lastCompleted.find(a);
    std::uint64_t completed = lc ? *lc : 0;
    if (v == completed)
        return;
    const auto *pw = pendingWrites.find(a);
    if (pw && std::find(pw->begin(), pw->end(), v) != pw->end())
        return;
    ++_valueErrors;
    warn("concurrent: read @%llu sampled %llu (completed %llu, "
         "no matching pending write)",
         static_cast<unsigned long long>(a),
         static_cast<unsigned long long>(v),
         static_cast<unsigned long long>(completed));
}

// ---------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------

ConcurrentRunResult
ConcurrentProtocol::run(workload::ReferenceStream &stream)
{
    workload::MemRef ref;
    std::uint64_t total = 0;
    while (stream.next(ref)) {
        panic_if(ref.cpu >= cpus.size(), "cpu out of range");
        cpus[ref.cpu].queue.push_back(ref);
        ++total;
    }
    refsOutstanding = total;

    if (crashEnabled()) {
        for (const auto &ev : params.crashPlan.events) {
            if (ev.node >= cpus.size())
                continue;
            NodeId n = ev.node;
            eq.schedule([this, n, restart = ev.restartTick] {
                crashNode(n, restart);
            }, ev.killTick);
            if (ev.restartTick > ev.killTick)
                eq.schedule([this, n] { rejoinNode(n); },
                            ev.restartTick);
        }
    }

    Bits start_bits = net.linkStats().totalBits();
    for (NodeId c = 0; c < cpus.size(); ++c)
        issueNext(c);

    if (params.watchdogPeriod > 0 && refsOutstanding > 0) {
        watchdogEv = eq.scheduleIn([this] { watchdogTick(); },
                                   params.watchdogPeriod);
        watchdogArmed = true;
    }

    eq.run();
    // Close the final (possibly partial) metrics window so short
    // runs and the report tool always see the full series.
    msampler.finish(eq.curTick());

    // A watchdog abort is a *reported* deadlock: the result carries
    // it and the caller decides. Anything else left hanging is an
    // engine bug.
    panic_if(refsOutstanding != 0 && !_aborted,
             "deadlock: %llu references never completed",
             static_cast<unsigned long long>(refsOutstanding));

    ConcurrentRunResult res;
    res.refs = total;
    res.makespan = eq.curTick();
    res.networkBits = net.linkStats().totalBits() - start_bits;
    res.valueErrors = _valueErrors;
    res.deadlocks = ctrs.watchdogDeadlocks;
    res.refsLost = ctrs.refsLost;
    res.avgReadLatency = readsDone
        ? readLatSum / static_cast<double>(readsDone) : 0;
    res.avgWriteLatency = writesDone
        ? writeLatSum / static_cast<double>(writesDone) : 0;
    return res;
}

} // namespace mscp::proto
