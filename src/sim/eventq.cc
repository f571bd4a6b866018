#include "eventq.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

namespace mscp
{

namespace
{

constexpr std::size_t Arity = 4;

} // anonymous namespace

// Both sifts move a hole instead of swapping: the node being placed
// is held aside and written once, at its final position.

void
EventQueue::siftUp(std::size_t i)
{
    const Node n = heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / Arity;
        if (!before(n, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = n;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t size = heap.size();
    const Node n = heap[i];
    while (true) {
        std::size_t first = i * Arity + 1;
        if (first >= size)
            break;
        std::size_t best = first;
        std::size_t last = std::min(first + Arity, size);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(heap[c], heap[best]))
                best = c;
        }
        if (!before(heap[best], n))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = n;
}

EventQueue::Node
EventQueue::popTop()
{
    const Node top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty())
        siftDown(0);
    return top;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != NoSlot) {
        std::uint32_t s = freeHead;
        freeHead = slots[s].nextFree;
        return s;
    }
    panic_if(slots.size() >= NoSlot, "event slab exhausted");
    slots.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
}

void
EventQueue::freeSlot(std::uint32_t s)
{
    slots[s].nextFree = freeHead;
    freeHead = s;
}

void
EventQueue::pruneTop()
{
    while (!heap.empty() && !slots[heap.front().slot].live) {
        freeSlot(popTop().slot);
        --tombstones;
    }
}

EventId
EventQueue::schedule(InlineFunction cb, Tick when)
{
    return scheduleKeyed(std::move(cb), when, nextSeq);
}

EventId
EventQueue::scheduleKeyed(InlineFunction cb, Tick when,
                          std::uint64_t key)
{
    panic_if(when < _curTick,
             "scheduling event in the past (when=%llu cur=%llu)",
             static_cast<unsigned long long>(when),
             static_cast<unsigned long long>(_curTick));
    const std::uint64_t seq = nextSeq++;
    if (tracer) {
        tracer->record(TraceEvent::EvSchedule, _curTick, 0, 0, 0,
                       seq, when);
    }
    const std::uint32_t s = allocSlot();
    Slot &slot = slots[s];
    slot.cb = std::move(cb);
    slot.live = true;
    heap.push_back(Node{when, key, seq, s});
    siftUp(heap.size() - 1);
    return (static_cast<EventId>(slot.gen) << 32) | s;
}

bool
EventQueue::deschedule(EventId id)
{
    const auto s = static_cast<std::uint32_t>(id);
    if (s >= slots.size())
        return false;
    Slot &slot = slots[s];
    if (!slot.live || slot.gen != static_cast<std::uint32_t>(id >> 32))
        return false;
    // The slot stays off the free list until its tombstoned heap
    // node is dropped, so no other event can claim it meanwhile.
    slot.live = false;
    ++slot.gen;
    slot.cb = InlineFunction{};
    ++tombstones;
    // Cancel-heavy users (timer wheels, the per-shard PDES queues)
    // would otherwise let dead slots dominate the heap and every
    // sift pay for them; rebuilding at the half-full mark keeps the
    // amortized cost per deschedule constant.
    if (tombstones > heap.size() / 2)
        compact();
    return true;
}

void
EventQueue::compact()
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap.size(); ++i) {
        if (slots[heap[i].slot].live)
            heap[kept++] = heap[i];
        else
            freeSlot(heap[i].slot);
    }
    heap.resize(kept);
    tombstones = 0;
    if (heap.size() > 1) {
        for (std::size_t i = (heap.size() - 2) / Arity + 1; i-- > 0;)
            siftDown(i);
    }
}

Tick
EventQueue::nextTick() const
{
    // The top may be a tombstone; prune without mutating state.
    // pruneTop() is cheap but non-const, so scan lazily here: a
    // tombstoned top is rare, and the next live event's tick is
    // what callers want.
    EventQueue *self = const_cast<EventQueue *>(this);
    self->pruneTop();
    return heap.empty() ? maxTick : heap.front().when;
}

bool
EventQueue::step()
{
    pruneTop();
    if (heap.empty())
        return false;
    const Node top = popTop();
    // Move the callback out and free its slot before invoking it:
    // the callback may schedule (growing, and so moving, the slab)
    // or reset() the queue.
    Slot &slot = slots[top.slot];
    InlineFunction cb = std::move(slot.cb);
    slot.live = false;
    ++slot.gen;
    freeSlot(top.slot);
    _curTick = top.when;
    ++_executed;
    // Window boundaries snapshot *before* the event at the boundary
    // tick executes, so each window holds exactly the events whose
    // ticks precede it.
    if (msampler)
        msampler->advanceTo(top.when);
    cb();
    return true;
}

std::uint64_t
EventQueue::run(Tick max_ticks)
{
    std::uint64_t executed = 0;
    while (true) {
        pruneTop();
        if (heap.empty() || heap.front().when > max_ticks)
            break;
        step();
        ++executed;
    }
    return executed;
}

void
EventQueue::reset(Tick start)
{
    heap.clear();
    slots.clear();
    freeHead = NoSlot;
    tombstones = 0;
    _curTick = start;
    nextSeq = 0;
    _executed = 0;
}

} // namespace mscp
