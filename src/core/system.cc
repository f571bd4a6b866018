#include "system.hh"

#include <iomanip>
#include <string>

#include "sim/logging.hh"

namespace mscp::core
{

const char *
policyKindName(PolicyKind k)
{
    switch (k) {
      case PolicyKind::EngineDefault: return "engine-default";
      case PolicyKind::ForceDW: return "force-dw";
      case PolicyKind::ForceGR: return "force-gr";
      case PolicyKind::Adaptive: return "adaptive";
    }
    return "unknown";
}

System::System(const SystemConfig &config)
    : cfg(config)
{
    fatal_if(!isPowerOfTwo(cfg.numPorts) || cfg.numPorts < 2,
             "system needs a power-of-two port count >= 2");
    net = std::make_unique<net::OmegaNetwork>(cfg.numPorts);

    proto::StenstromParams pp;
    pp.geometry = cfg.geometry;
    pp.multicastScheme = cfg.multicastScheme;
    pp.defaultMode = cfg.defaultMode;
    pp.sizes = cfg.sizes;

    if (cfg.useSchemeRegisters) {
        fatal_if(cfg.clusterSize == 0 ||
                 !isPowerOfTwo(cfg.clusterSize) ||
                 cfg.clusterSize > cfg.numPorts,
                 "scheme registers need a power-of-two cluster size "
                 "<= N");
        // The dominant multicast is the distributed-write update;
        // its wire size is the register's message size M.
        Bits m_bits = cfg.sizes.control() + cfg.sizes.wordBits;
        regs = SchemeRegisters::compute(cfg.numPorts,
                                        cfg.clusterSize, m_bits);
        SchemeRegisters r = regs;
        pp.schemePolicy = [r](unsigned n) { return r.choose(n); };
    }

    proto = std::make_unique<proto::StenstromProtocol>(*net, pp);

    switch (cfg.policy) {
      case PolicyKind::EngineDefault:
        modePolicy = std::make_unique<EngineDefaultPolicy>();
        break;
      case PolicyKind::ForceDW:
        modePolicy = std::make_unique<StaticModePolicy>(
            cache::Mode::DistributedWrite);
        break;
      case PolicyKind::ForceGR:
        modePolicy = std::make_unique<StaticModePolicy>(
            cache::Mode::GlobalRead);
        break;
      case PolicyKind::Adaptive:
        modePolicy = std::make_unique<AdaptiveModePolicy>(
            cfg.adaptWindow);
        break;
    }
}

proto::RunResult
System::run(workload::ReferenceStream &stream)
{
    proto::RunResult res;
    Bits start_bits = net->linkStats().totalBits();
    std::uint64_t start_msgs = proto->messageCounters().totalCount();
    std::uint64_t start_errors = proto->valueErrors();

    workload::MemRef ref;
    while (stream.next(ref)) {
        ++res.refs;
        if (ref.isWrite) {
            ++res.writes;
            proto->write(ref.cpu, ref.addr, ref.value);
        } else {
            ++res.reads;
            proto->read(ref.cpu, ref.addr);
        }
        modePolicy->afterRef(*proto, ref);
    }

    res.networkBits = net->linkStats().totalBits() - start_bits;
    res.messages = proto->messageCounters().totalCount() - start_msgs;
    res.valueErrors = proto->valueErrors() - start_errors;
    return res;
}

void
System::report(std::ostream &os) const
{
    const auto &c = proto->counters();
    const auto &ls = net->linkStats();

    os << "system: N=" << cfg.numPorts
       << " scheme=" << net::schemeName(cfg.multicastScheme)
       << " policy=" << policyKindName(cfg.policy) << "\n";
    os << "refs: " << c.reads << " reads (" << c.readHits
       << " hits), " << c.writes << " writes\n";
    os << "misses: uncached=" << c.readMissUncached
       << " owned-dw=" << c.readMissOwnedDW
       << " owned-gr=" << c.readMissOwnedGR
       << " pointer-gr=" << c.readMissPointerGR << "\n";
    os << "ownership transfers: " << c.ownershipTransfers
       << ", mode switches: " << c.modeSwitches
       << ", dw updates: " << c.dwUpdates
       << ", invalidations: " << c.invalidations << "\n";
    os << "replacements: " << c.replacements
       << " (owned-excl=" << c.replOwnedExcl
       << " owned-nonexcl=" << c.replOwnedNonExcl
       << " unowned=" << c.replUnOwned
       << " invalid=" << c.replInvalid << ")\n";
    os << "network: " << ls.totalBits() << " bits over "
       << ls.traversals() << " link traversals; per-level:";
    for (unsigned i = 0; i < ls.numLevels(); ++i)
        os << " " << ls.levelBits(i);
    os << "\n";
}

namespace
{

void
statLine(std::ostream &os, const std::string &name, double value,
         const std::string &desc)
{
    os << std::left << std::setw(44) << name << " "
       << std::right << std::setw(16) << value << "  # " << desc
       << "\n";
}

} // anonymous namespace

void
dumpStats(std::ostream &os, const System &sys)
{
    const auto &p = sys.protocol();
    const auto &c = p.counters();
    const auto &ls = sys.network().linkStats();
    const auto num = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const std::string proto_prefix = "system.protocol.";
    const std::string net_prefix = "system.network.";

    statLine(os, proto_prefix + "reads", num(c.reads),
             "processor reads");
    statLine(os, proto_prefix + "writes", num(c.writes),
             "processor writes");
    statLine(os, proto_prefix + "read_hit_ratio",
             c.reads ? num(c.readHits) / num(c.reads) : 0.0,
             "fraction of reads hitting locally");
    statLine(os, proto_prefix + "ownership_transfers",
             num(c.ownershipTransfers), "block-store owner changes");
    statLine(os, proto_prefix + "mode_switches", num(c.modeSwitches),
             "distributed-write/global-read transitions");
    statLine(os, proto_prefix + "dw_updates", num(c.dwUpdates),
             "distributed-write multicasts");
    statLine(os, proto_prefix + "replacements", num(c.replacements),
             "entry evictions");
    statLine(os, proto_prefix + "write_backs", num(c.writeBacks),
             "modified blocks returned to memory");
    statLine(os, proto_prefix + "messages",
             num(p.messageCounters().totalCount()),
             "protocol messages sent");

    const double refs = num(c.reads + c.writes);
    statLine(os, net_prefix + "total_bits", num(ls.totalBits()),
             "communication cost CC (eq. 1)");
    statLine(os, net_prefix + "traversals", num(ls.traversals()),
             "link traversals");
    statLine(os, net_prefix + "max_link_bits", num(ls.maxLinkBits()),
             "hottest single link");
    statLine(os, net_prefix + "bits_per_ref",
             refs ? num(ls.totalBits()) / refs : 0.0,
             "network bits per processor reference");
    for (unsigned lvl = 0; lvl < ls.numLevels(); ++lvl) {
        const std::string stage = std::to_string(lvl);
        statLine(os, net_prefix + "level" + stage + "_bits",
                 num(ls.levelBits(lvl)),
                 "bits into stage " + stage + " (L_i of eq. 1)");
    }
}

void
dumpMessageTable(std::ostream &os,
                 const proto::MessageCounters &counters)
{
    os << std::left << std::setw(16) << "message type"
       << std::right << std::setw(12) << "count"
       << std::setw(16) << "bits" << "\n";
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(proto::MsgType::NumTypes);
         ++i) {
        if (counters.count[i] == 0)
            continue;
        os << std::left << std::setw(16)
           << proto::msgTypeName(static_cast<proto::MsgType>(i))
           << std::right << std::setw(12) << counters.count[i]
           << std::setw(16) << counters.bits[i] << "\n";
    }
    os << std::left << std::setw(16) << "total"
       << std::right << std::setw(12) << counters.totalCount()
       << std::setw(16) << counters.totalBits() << "\n";
}

} // namespace mscp::core
