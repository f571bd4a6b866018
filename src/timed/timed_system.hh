/**
 * @file
 * Transaction-level timed execution of the two-mode protocol.
 *
 * The atomic engine (proto/) measures the paper's link-bit metric;
 * this layer adds *time*: processors block until their current
 * reference completes, every protocol message is replayed through a
 * store-and-forward contention model of the omega network, and the
 * system reports execution time, per-reference latency
 * distributions and link utilization.
 *
 * Timing model (documented design decision): references execute in
 * virtual-time order, one at a time against the protocol state
 * (exactly the atomic engine's semantics - the paper's evaluation
 * model is also race-free), while the *messages* of concurrent
 * processors' transactions share links and queue against each other.
 * A transaction's messages are causally chained (each departs when
 * the previous one has fully arrived); a multicast completes at its
 * last delivery. Co-located (processor-memory element) exchanges
 * cost localLatency.
 */

#ifndef MSCP_TIMED_TIMED_SYSTEM_HH
#define MSCP_TIMED_TIMED_SYSTEM_HH

#include <memory>
#include <queue>
#include <vector>

#include "core/latency.hh"
#include "core/system.hh"
#include "workload/ref_stream.hh"

namespace mscp::timed
{

/** Timing parameters. */
struct TimedConfig
{
    Bits linkWidthBits = 16; ///< bits a link moves per tick
    Tick hopLatency = 1;     ///< switch traversal delay
    Tick hitLatency = 1;     ///< local cache access
    Tick localLatency = 2;   ///< co-located request/reply exchange
    /**
     * Closed-loop think time: ticks of private work between a
     * reference's completion and the processor's next issue. Keeps
     * processors roughly in phase on shared-data microworkloads
     * (with 0, fast processors race arbitrarily far ahead of ones
     * blocked on remote misses).
     */
    Tick thinkTime = 0;
};

/** Outcome of a timed run. */
struct TimedRunResult
{
    Tick makespan = 0;           ///< completion of the last ref
    std::uint64_t refs = 0;
    std::uint64_t valueErrors = 0;
    Bits networkBits = 0;        ///< functional CC of the run
    double avgReadLatency = 0;   ///< ticks per read
    double avgWriteLatency = 0;  ///< ticks per write
    core::LatencyHistogram readLatency;  ///< this run's reads, ticks
    core::LatencyHistogram writeLatency; ///< this run's writes, ticks
    std::uint64_t localRefs = 0;  ///< references with no messages
    std::uint64_t remoteRefs = 0; ///< references with messages
    double linkUtilization = 0;  ///< busy-bit fraction of capacity
    /**
     * Ideal-parallel lower bound: the longest single-cpu sum of
     * latencies had there been no contention.
     */
    Tick zeroLoadCriticalPath = 0;
};

/** Timed wrapper around core::System. */
class TimedSystem
{
  public:
    TimedSystem(const core::SystemConfig &sys_cfg,
                const TimedConfig &timed_cfg);
    ~TimedSystem();

    core::System &system() { return *sys; }

    /**
     * Execute a reference stream to completion under the timing
     * model. Each cpu's references keep program order; different
     * cpus advance concurrently and contend on links.
     */
    TimedRunResult run(workload::ReferenceStream &stream);

  private:
    struct Replayer;

    core::SystemConfig sysCfg;
    TimedConfig cfg;
    std::unique_ptr<core::System> sys;
};

} // namespace mscp::timed

#endif // MSCP_TIMED_TIMED_SYSTEM_HH
