/**
 * @file
 * Model-checker gateway: the concurrent engine as a guarded-action
 * transition system.
 *
 * The explorer never runs the engine's event loop. Instead the
 * engine is constructed in *controlled mode* (vControlled), where
 * every source of nondeterminism is lifted into an explicit Action
 * the explorer chooses:
 *
 *  - Issue      a cpu starts its next queued reference;
 *  - Commit     a scheduled completion (hit latency window) fires;
 *  - Retry      a deferred access (clearPending / all-ways-pinned
 *               backoff loop) re-runs;
 *  - Timeout    an armed retry timer fires;
 *  - Deliver    one buffered message is delivered -- by default only
 *               per-sender-stream FIFO heads are eligible (see
 *               VerifyOptions::fifoChannels);
 *  - Crash      a cache controller dies (budgeted);
 *  - Rejoin     a dead node cold-restarts;
 *  - Sweep      a dead node's stabilization sweep runs at the homes.
 *
 * Backtracking restores a Snapshot. The engine as a whole is not
 * copyable (the event queue holds inline callbacks), but in
 * controlled mode the queue is empty between actions, so the
 * state an action can change is the engine's protocol state plus
 * the queue's tick: the gateway copies exactly that out (save) and
 * back (restore). The search loops keep one snapshot per DFS depth
 * and restore the parent's before trying its next action; reset()
 * is a restore of the snapshot taken at construction. Replay of an
 * action prefix remains only where a path is edited (counterexample
 * minimization, lasso checks, trace export), and determinism makes
 * it exact. The canonical byte serialization (canon.cc) exists only
 * for the seen-state set and for symmetry reduction -- it is never
 * deserialized.
 */

#ifndef MSCP_VERIFY_STATE_HH
#define MSCP_VERIFY_STATE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/omega_network.hh"
#include "proto/concurrent.hh"
#include "verify/por.hh"
#include "workload/ref_stream.hh"

namespace mscp::verify
{

/** The kinds of transition the explorer can take. */
enum class ActionKind : std::uint8_t
{
    Issue,
    Commit,
    Retry,
    Timeout,
    Deliver,
    Sweep,
    Rejoin,
    Crash,
};

/** Printable action-kind name. */
const char *actionKindName(ActionKind k);

/**
 * One enabled transition. For Deliver, @c index addresses the
 * pending buffer at enumeration time and @c fp fingerprints the
 * message content so a replay on a rebuilt engine (whose buffer
 * order may differ after minimization) can re-locate it. The
 * remaining fields describe the message for counterexample output.
 */
struct Action
{
    ActionKind kind = ActionKind::Issue;
    NodeId node = 0;         ///< cpu / crashed node (non-Deliver)
    std::uint32_t index = 0; ///< Deliver: pending-buffer position
    std::uint64_t fp = 0;    ///< Deliver: content fingerprint
    std::uint8_t msgType = 0;
    NodeId src = 0;
    NodeId dst = 0;
    bool srcIsMem = false;
    bool toMemory = false;
    std::uint64_t blk = 0;
    std::uint64_t seq = 0;
};

/** Exploration budgets and reductions. */
struct VerifyOptions
{
    /**
     * Deliver only the head of each (src, src-role, dst, dst-role)
     * stream. The real network is FIFO per physical port pair; the
     * per-role-stream relaxation explored here is a strict superset
     * of those orderings (sound: no real behavior is missed) and,
     * unlike port-pair FIFO, is equivariant under the cache-role
     * node permutations symmetry reduction applies. false explores
     * every permutation of the pending buffer.
     */
    bool fifoChannels = true;
    /**
     * Canonicalize states up to permutation of cache roles (home
     * roles are fixed by the block interleaving). Automatically
     * disabled when the configuration can evict (see
     * EngineGateway::symmetryEligible).
     */
    bool symmetry = true;
    /** Unique-state budget; exploration stops expanding beyond it. */
    std::uint64_t maxStates = 1u << 20;
    /** Action-depth bound per path. */
    unsigned maxDepth = 4096;
    /** Crash actions allowed per path (0 = no crash exploration). */
    unsigned crashBudget = 0;
    /** Whether crashed nodes may cold-restart (Rejoin actions). */
    bool allowRejoin = false;
    /** Retry-timer base; > 0 arms (virtual) timers and enables
     *  Timeout actions. */
    Tick timeoutBase = 0;
    unsigned maxRetries = 1;
    /**
     * Partial-order reduction (por.hh): ample clusters with the
     * cycle proviso plus sleep sets. Heuristic over a hand-derived
     * independence relation -- verify_sweep's audit mode re-checks
     * it against full exploration per config.
     */
    bool por = false;
    /**
     * Suppress buffering a controlled-mode send whose exact content
     * is already pending. Timeout resends and suspicion rounds
     * re-send verbatim copies whose delivery every handler absorbs
     * as a duplicate; folding them bounds the otherwise unbounded
     * retry-storm frontier so crash configs become exhaustible.
     * A modeling reduction like fifoChannels: explored behaviors
     * are a subset of the unrestricted interleavings.
     */
    bool dedupResends = false;
};

/** One model-checking configuration. */
struct VerifyConfig
{
    std::string name = "cfg";
    /** Network ports (power of two >= 2); also cpu/home count. */
    unsigned nodes = 2;
    cache::Geometry geometry{1, 1, 1};
    cache::Mode mode = cache::Mode::DistributedWrite;
    /** program[cpu] = that cpu's in-order references. */
    std::vector<std::vector<workload::MemRef>> program;
    VerifyOptions opt;

    /** Block-id universe touched by the programs: max block + 1. */
    std::uint64_t numBlocks() const;
};

/** A property violation plus the action path that reaches it. */
struct Violation
{
    /** "I1".."I10", "NQ", "value", "deadlock", "panic" or
     *  "livelock". */
    std::string kind;
    std::vector<std::string> details;
    std::vector<Action> path;
    /**
     * Livelock lasso cycle: replaying @c path reaches the cycle's
     * anchor state, replaying @c cycle returns to it with
     * references still outstanding and weak fairness respected.
     * Empty for safety violations.
     */
    std::vector<Action> cycle;
};

/** Exploration outcome and coverage statistics. */
struct ExploreResult
{
    std::uint64_t states = 0;      ///< unique canonical states
    std::uint64_t edges = 0;       ///< actions applied
    std::uint64_t prunedSeen = 0;  ///< revisits cut by the seen set
    std::uint64_t prunedDepth = 0; ///< paths cut by maxDepth
    std::uint64_t settledStates = 0; ///< invariant-checked states
    /** Distinct settled canonical states (coverage identity). */
    std::uint64_t settledUnique = 0;
    /** Order-independent digest over the distinct settled states;
     *  the POR audit asserts full and reduced runs agree. */
    std::uint64_t settledDigest = 0;
    unsigned maxDepthReached = 0;
    bool budgetExhausted = false;  ///< maxStates hit
    /** Exhaustive: no violation, no budget/depth truncation. */
    bool complete = false;
    std::vector<Violation> violations; ///< first violation found
};

/**
 * One value-visible event of the implementation: a program
 * reference starting (invoke) or finishing (respond). The
 * refinement harness (refine.hh) checks the sequence of these
 * against the linearizability specification.
 */
struct ObsEvent
{
    NodeId cpu = 0;
    bool invoke = false;  ///< invocation vs response
    bool isWrite = false;
    Addr addr = 0;
    /** Write: the value written (known at invoke). Read: the value
     *  the reference returned (respond only). */
    std::uint64_t value = 0;
};

/**
 * Owns one controlled engine and translates between explorer
 * actions and engine internals (it is the engine's only friend).
 */
class EngineGateway
{
  public:
    /** @param with_trace record engine events for counterexample
     *  replay/export (off during exploration). */
    explicit EngineGateway(const VerifyConfig &cfg,
                           bool with_trace = false);
    ~EngineGateway();

    /**
     * The engine's mutable state between two actions: everything
     * an action can change and the engine reads back (cpus, homes,
     * dead set, monitor, controlled-mode buffers, counters and
     * latency sums), plus the event queue's tick. Members carry
     * the engine's own names. Fill one with save(); once filled,
     * later saves and restores are copy-assignments into storage
     * that already exists.
     */
    struct Snapshot
    {
        using Engine = proto::ConcurrentProtocol;

        proto::ConcurrentCounters ctrs;
        proto::MessageCounters msgs;
        std::vector<Engine::CpuState> cpus;
        std::vector<Engine::HomeState> homes;
        DynamicBitset deadNodes;
        FlatMap<Addr, std::uint64_t> lastCompleted;
        FlatMap<Addr, std::vector<std::uint64_t>> pendingWrites;
        std::uint64_t _valueErrors = 0;
        std::vector<Engine::VerifyPending> vPending;
        std::vector<NodeId> vSweepPending;
        std::vector<Engine::VerifyObs> vObsLog;
        bool vMemSend = false;
        double readLatSum = 0;
        double writeLatSum = 0;
        std::uint64_t readsDone = 0;
        std::uint64_t writesDone = 0;
        std::uint64_t refsOutstanding = 0;
        Tick tick = 0;
    };

    /** Copy the current state into @p s. Panics unless the event
     *  queue is empty (the snapshot holds no pending events). */
    void save(Snapshot &s) const;

    /**
     * Return to the state saved in @p s: protocol state copied
     * back, the event queue idle at the saved tick. Panics on a
     * traced gateway, whose recording a restore would contradict.
     */
    void restore(const Snapshot &s);

    /** Return to the initial state (restore of the snapshot taken
     *  at construction). */
    void reset();

    /** Enabled transitions, in a fixed deterministic order. */
    std::vector<Action> enabledActions() const;

    /**
     * Apply an enabled action. Engine panics surface as PanicError
     * (logging is switched to throwing around the dispatch).
     */
    void apply(const Action &a);

    /**
     * Replay helper: apply @p a if it is still enabled, matching
     * Deliver actions by fingerprint instead of buffer index.
     * @return false when the action is infeasible in this state.
     */
    bool applyIfEnabled(const Action &a);

    /**
     * Whether the system has no work in flight: all references
     * done or lost, nothing pending in the buffer, no sweeps
     * outstanding and no home busy periods. The invariant suite is
     * meaningful exactly here.
     */
    bool settled() const;

    std::uint64_t refsOutstanding() const;
    std::uint64_t valueErrors() const;

    /** Run the I1..I10 suite over the current (settled) state. */
    std::vector<std::string> checkInvariants() const;

    /**
     * Canonical byte serialization of the current state (canon.cc):
     * absolute ticks dropped, per-space sequence/token/stamp values
     * rank-renumbered, LRU clocks reduced to per-set ranks, pending
     * messages grouped per stream, and (when enabled and eligible)
     * the minimum over all cache-role permutations.
     */
    std::vector<std::uint8_t> canonical() const;

    /**
     * Whether cache-role symmetry reduction is sound for this
     * configuration. Candidate lists for ownership hand-offs are
     * materialized in ascending node-id order, which is not
     * permutation-equivariant; the reduction is therefore only
     * applied when no program can overflow a cache set (no
     * evictions => no hand-offs). Larger configs explore with
     * symmetry off.
     */
    bool symmetryEligible() const { return symEligible; }

    /** Record a VerifyAction instant in the engine's tracer (used
     *  by counterexample replays to mark action boundaries). */
    void markAction(const Action &a, std::uint64_t step);

    /**
     * Static independence footprint of an enabled action (por.hh):
     * the component it executes at, plus the monitor block it may
     * sample or update. Must be called in the state the action was
     * enumerated in (Issue inspects the queue head).
     */
    ActionFootprint footprint(const Action &a) const;

    /** Drain the observable events the last apply() emitted
     *  (controlled-mode invoke/respond log). */
    std::vector<ObsEvent> takeObservations();

    /**
     * Auxiliary observable state the canonical serialization omits:
     * the pending read-sample per active read (the value a respond
     * will carry). The refinement harness folds this into its seen
     * key so states differing only in an accepted-but-uncommitted
     * read value stay distinct.
     */
    std::vector<std::uint64_t> pendingSamples() const;

    const VerifyConfig &config() const { return cfg; }
    const Tracer &tracer() const;
    const proto::ConcurrentProtocol &engine() const { return *eng; }

  private:
    using Engine = proto::ConcurrentProtocol;
    using Msg = Engine::Msg;

    void buildEngine();
    /** Copy the snapshot members between engine and snapshot (both
     *  name them alike). */
    template <typename To, typename From>
    static void copyState(To &to, const From &from);
    /** Advance virtual time by one tick (one sentinel event), so
     *  durable-write stamps and LRU updates of successive actions
     *  stay causally ordered. */
    void advance();
    void applyUnchecked(const Action &a);
    bool enabledNonDeliver(const Action &a) const;
    /** Whether pending entry @p i is the head of its stream. */
    bool isStreamHead(std::size_t i) const;
    /**
     * Whether pending entry @p i may be delivered now: the head of
     * its stream under FIFO, and -- for RecoveryAck -- not before
     * every in-flight message a dead cache sent has drained. The
     * latter encodes the engine's stabilization assumption
     * (DESIGN.md 5f): with uniform network latency, any post-crash
     * purge/ack round trip strictly outlasts the dead node's
     * pre-crash residual traffic, so a reconstruction can never
     * complete while e.g. the victim's last DurableWrite is still
     * in the air. An untimed model must impose that ordering
     * explicitly or it reports unreachable stale-read artifacts.
     */
    bool deliverEligible(std::size_t i) const;
    /** Any pending message sent by a now-dead cache role. */
    bool deadSrcPending(NodeId n = invalidNode) const;
    static std::uint64_t fingerprint(const Msg &m, bool src_is_mem);
    static Action describeDeliver(const Msg &m, bool src_is_mem,
                                  std::uint32_t index);

    VerifyConfig cfg;
    bool withTrace = false;
    bool symEligible = false;
    std::uint64_t nBlocks = 0;
    std::unique_ptr<net::OmegaNetwork> net;
    std::unique_ptr<Engine> eng;
    /** The state buildEngine() produced (untraced gateways only). */
    Snapshot initial;
};

/**
 * One gateway snapshot per search depth, reused for the whole
 * search: a depth-first loop saves a frame's state when it pushes
 * the frame and restores it before the frame's next action. Slots
 * are only ever added, so after the deepest path has been reached
 * every save and restore copies into storage that already exists.
 */
class SnapshotStack
{
  public:
    void save(const EngineGateway &gw, std::size_t depth);
    void restore(EngineGateway &gw, std::size_t depth) const;

  private:
    std::vector<EngineGateway::Snapshot> slots;
};

} // namespace mscp::verify

#endif // MSCP_VERIFY_STATE_HH
