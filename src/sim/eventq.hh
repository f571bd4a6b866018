/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick fire in schedule order (a
 * monotonically increasing sequence number breaks ties), which keeps
 * simulations reproducible across runs and platforms.
 *
 * Implementation: a 4-ary min-heap of trivially copyable 32-byte
 * {tick, key, seq, slot} nodes, so a sift is plain 32-byte copies.
 * The callbacks (InlineFunctions, so captures never touch the heap
 * allocator) live in a side slab indexed by the node's slot, reused
 * through an intrusive free list. Each slab slot carries a liveness
 * flag and a generation counter; an EventId is the slot plus its
 * generation at schedule time, and the generation bumps whenever
 * the slot's event fires or is descheduled, so a stale handle never
 * reaches the event that later reuses the slot. deschedule() is
 * lazy: the slot goes dead and its heap node becomes a tombstone
 * that is skipped, and the slot freed, when it reaches the top. A
 * descheduled event never fires, and size() never counts
 * tombstones. When tombstones outnumber live events the heap is
 * compacted in place, so a queue used as a cancel-heavy timer wheel
 * (and the smaller per-shard queues of the PDES engine) stays
 * proportional to its live population.
 *
 * Same-tick ordering: schedule() uses the event's own sequence
 * number as its key, so events at one tick fire in schedule order.
 * scheduleKeyed() lets the caller impose an explicit total order on
 * same-tick events instead; the PDES engine uses this to make a
 * partitioned run execute same-tick events in exactly the order the
 * single global queue would have (DESIGN.md 5h).
 */

#ifndef MSCP_SIM_EVENTQ_HH
#define MSCP_SIM_EVENTQ_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace mscp
{

class MetricsSampler;
class Tracer;

/**
 * Opaque handle identifying a scheduled event for descheduling
 * (the event's callback-slab slot and that slot's generation).
 */
using EventId = std::uint64_t;

/**
 * Discrete-event queue with deterministic same-tick ordering.
 *
 * The queue owns no simulation objects; callbacks are any `void()`
 * callables whose captures fit InlineFunction::InlineSize bytes
 * (checked at compile time). Typical use:
 *
 *     EventQueue eq;
 *     eq.schedule([&]{ ... }, eq.curTick() + 5);
 *     eq.run();
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /**
     * Number of live events waiting in the queue. Descheduled
     * events still occupying tombstone heap slots are not counted.
     */
    std::size_t size() const { return heap.size() - tombstones; }

    /** @return true iff no live events are pending. */
    bool empty() const { return size() == 0; }

    /** Events executed since construction (or the last reset()). */
    std::uint64_t executedEvents() const { return _executed; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param cb callback to invoke
     * @param when absolute tick, must be >= curTick()
     * @return handle usable with deschedule()
     */
    EventId schedule(InlineFunction cb, Tick when);

    /**
     * Schedule with an explicit same-tick ordering key. Events at
     * the same tick fire in ascending @p key order (ties broken by
     * schedule order), independently of when they were scheduled.
     * schedule() is equivalent to scheduleKeyed() with the event's
     * own sequence number as the key.
     */
    EventId scheduleKeyed(InlineFunction cb, Tick when,
                          std::uint64_t key);

    /** Schedule a callback @p delay ticks in the future. */
    EventId
    scheduleIn(InlineFunction cb, Tick delay)
    {
        return schedule(std::move(cb), _curTick + delay);
    }

    /**
     * Remove a previously scheduled event.
     *
     * The callback is destroyed at once; the heap node is
     * tombstoned and reclaimed lazily, but the event is dead from
     * this call on: it will never fire and no longer counts toward
     * size().
     *
     * @return true if the event was pending and is now removed,
     *         false if it already fired, was already descheduled,
     *         or was never scheduled.
     */
    bool deschedule(EventId id);

    /** Tick at which the next live event fires, or maxTick. */
    Tick nextTick() const;

    /**
     * Execute a single event (the earliest live one), advancing
     * time.
     *
     * @return true if an event was executed.
     */
    bool step();

    /**
     * Run until the queue drains or @p maxTicks is reached.
     *
     * @param maxTicks stop once curTick() would exceed this value
     * @return number of events executed
     */
    std::uint64_t run(Tick maxTicks = maxTick);

    /** Drop every pending event and reset time to zero. */
    void reset();

    /**
     * Attach a tracer recording an EvSchedule record per schedule()
     * call. Attach only while tracing is enabled (the owner's job),
     * so the untraced path pays exactly one null-pointer branch.
     * Pass nullptr to detach.
     */
    void setTracer(Tracer *t) { tracer = t; }

    /**
     * Attach a windowed metrics sampler, advanced to each event's
     * tick just before the event executes so every snapshot boundary
     * reflects exactly the events that preceded it (sim/metrics.hh).
     * Attach only while metrics are enabled, as with setTracer();
     * pass nullptr to detach.
     */
    void setMetricsSampler(MetricsSampler *s) { msampler = s; }

    /**
     * Heap slots currently occupied by descheduled events
     * (diagnostic; exercised by the compaction property test).
     */
    std::size_t tombstoneSlots() const { return tombstones; }

  private:
    /**
     * Heap entry: the ordering key and the slab slot holding the
     * event's callback. A fixed-width, trivially copyable 32-byte
     * POD, so every sift step is a plain copy.
     */
    struct Node
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(Node) == 32,
                  "EventQueue::Node must stay a 32-byte heap entry");
    static_assert(std::is_trivially_copyable_v<Node>,
                  "EventQueue::Node must stay trivially copyable");

    /** Callback-slab entry. */
    struct Slot
    {
        InlineFunction cb;
        /** Bumped each time the slot's event fires or is
         *  descheduled, invalidating outstanding handles. */
        std::uint32_t gen = 0;
        /** Next free slot while this one is on the free list. */
        std::uint32_t nextFree = 0;
        /** Scheduled and neither fired nor descheduled. */
        bool live = false;
    };

    /** Free-list terminator (and the slab's size limit). */
    static constexpr std::uint32_t NoSlot = ~std::uint32_t{0};

    /** Strict (tick, key, seq) order; seq is unique. */
    static bool
    before(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.key != b.key)
            return a.key < b.key;
        return a.seq < b.seq;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Remove the top node; heap must be non-empty. */
    Node popTop();
    /** Drop tombstoned nodes off the top of the heap. */
    void pruneTop();
    /** Rebuild the heap without its tombstoned slots. */
    void compact();
    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t s);

    Tracer *tracer = nullptr;
    MetricsSampler *msampler = nullptr;
    Tick _curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t tombstones = 0;
    std::vector<Node> heap;
    std::vector<Slot> slots;
    std::uint32_t freeHead = NoSlot;
};

} // namespace mscp

#endif // MSCP_SIM_EVENTQ_HH
