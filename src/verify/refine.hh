/**
 * @file
 * Cross-engine refinement: observable-trace inclusion against a
 * linearizability specification.
 *
 * The engine's built-in monitor (checkReadSample) validates each
 * read sample locally; it cannot catch cross-operation ordering
 * bugs where every individual sample has *some* justification but
 * no single linearization explains the whole run. checkRefinement()
 * closes that gap: it explores the implementation's transition
 * system and checks that every sequence of value-visible events --
 * invoke(cpu, op) when a reference issues, respond(cpu, value) when
 * it completes -- is also a trace of the atomic read/write register
 * specification. Implementation traces \subseteq specification
 * traces is trace refinement; for this spec it is exactly
 * linearizability of the memory operations.
 *
 * The spec side runs as a subset construction (LinSpec): the set of
 * all spec states consistent with the observations so far, advanced
 * by an epsilon-closure over linearization points before each
 * respond. An empty set means no linearization order can explain
 * the observed values -- a refinement violation, reported with the
 * action path that produced it.
 *
 * The harness is generic over a Subject so future engines (e.g. a
 * timestamp-based protocol) plug in by implementing seven virtuals:
 * reset, numCpus, enabledActions, apply, stateBytes, and the
 * save/restore pair the depth-first search backtracks with (the
 * subject keeps one saved state per search depth; the harness keeps
 * the matching spec set in its own frame). GatewaySubject adapts
 * the controlled-mode gateway and its snapshots. Symmetry
 * reduction is forced off underneath a subject: the spec set is
 * keyed by concrete cpu ids, which role permutation would alias.
 */

#ifndef MSCP_VERIFY_REFINE_HH
#define MSCP_VERIFY_REFINE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "verify/state.hh"

namespace mscp::verify
{

/** An engine under refinement checking, as the harness sees it. */
class Subject
{
  public:
    virtual ~Subject() = default;

    /** Return to the initial state. */
    virtual void reset() = 0;

    /** Save the current state into slot @p depth (the search keeps
     *  one per depth; a slot is overwritten by the next save). */
    virtual void save(std::size_t depth) = 0;

    /** Return to the state last saved into slot @p depth. */
    virtual void restore(std::size_t depth) = 0;

    /** Number of cpus issuing operations (spec width). */
    virtual unsigned numCpus() const = 0;

    /** Enabled transitions, deterministic order. */
    virtual std::vector<Action> enabledActions() = 0;

    /** Apply @p a; @return the observable events it emitted, in
     *  order. May throw PanicError. */
    virtual std::vector<ObsEvent> apply(const Action &a) = 0;

    /**
     * Byte identity of the current state for the seen set. Must
     * distinguish states whose *future observable behavior* can
     * differ -- in particular any accepted-but-not-yet-responded
     * read value must be folded in even if the exploration
     * canonicalization omits it.
     */
    virtual std::vector<std::uint8_t> stateBytes() = 0;
};

/** The controlled-mode engine gateway as a refinement subject. */
class GatewaySubject final : public Subject
{
  public:
    explicit GatewaySubject(const VerifyConfig &cfg);
    ~GatewaySubject() override;

    void reset() override;
    void save(std::size_t depth) override;
    void restore(std::size_t depth) override;
    unsigned numCpus() const override;
    std::vector<Action> enabledActions() override;
    std::vector<ObsEvent> apply(const Action &a) override;
    std::vector<std::uint8_t> stateBytes() override;

  private:
    std::unique_ptr<EngineGateway> gw;
    SnapshotStack snaps;
};

/**
 * Explore @p subj and check observable-trace inclusion in the
 * atomic-register spec. Violations have kind=="refine" (or
 * "panic"); states/edges count (implementation state, spec set)
 * pairs, and complete is false when @p maxStates or @p maxDepth
 * truncated the search.
 */
ExploreResult checkRefinement(Subject &subj,
                              std::uint64_t maxStates,
                              unsigned maxDepth);

/** Convenience: run the gateway subject for @p cfg with the
 *  config's own exploration budgets. */
ExploreResult checkRefinement(const VerifyConfig &cfg);

} // namespace mscp::verify

#endif // MSCP_VERIFY_REFINE_HH
