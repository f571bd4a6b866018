/** @file Unit tests for the deterministic event queue. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/eventq.hh"
#include "sim/logging.hh"

using namespace mscp;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule([&] { order.push_back(3); }, 30);
    eq.schedule([&] { order.push_back(1); }, 10);
    eq.schedule([&] { order.push_back(2); }, 20);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule([&order, i] { order.push_back(i); }, 5);
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule([&] {
        eq.scheduleIn([&] { seen = eq.curTick(); }, 7);
    }, 10);
    eq.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule([&] { fired = true; }, 5);
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id)); // second time: already gone
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, DescheduleAfterFiringFails)
{
    EventQueue eq;
    EventId id = eq.schedule([] {}, 1);
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunRespectsMaxTicks)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule([&] { ++fired; }, 10);
    eq.schedule([&] { ++fired; }, 20);
    eq.schedule([&] { ++fired; }, 30);
    EXPECT_EQ(eq.run(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5)
            eq.scheduleIn(chain, 1);
    };
    eq.schedule(chain, 0);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 4u);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule([] {}, 10);
    eq.step();
    EXPECT_THROW(eq.schedule([] {}, 5), PanicError);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule([] {}, 10);
    eq.schedule([] {}, 20);
    eq.step();
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueue, NextTickReportsEarliestEvent)
{
    EventQueue eq;
    eq.schedule([] {}, 42);
    eq.schedule([] {}, 17);
    EXPECT_EQ(eq.nextTick(), 17u);
}

TEST(EventQueue, SameTickFifoSurvivesInterleavedScheduling)
{
    // Schedule bursts at several ticks in shuffled tick order; the
    // heap must still replay each tick's burst in schedule order.
    EventQueue eq;
    std::vector<std::pair<Tick, int>> order;
    const Tick ticks[] = {30, 10, 50, 10, 30, 50, 10, 30, 50, 10};
    int perTick[64] = {};
    for (Tick t : ticks) {
        int k = perTick[t]++;
        eq.schedule([&order, t, k] { order.emplace_back(t, k); }, t);
    }
    eq.run();
    ASSERT_EQ(order.size(), std::size(ticks));
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i - 1].first == order[i].first)
            EXPECT_EQ(order[i - 1].second + 1, order[i].second);
        else
            EXPECT_LT(order[i - 1].first, order[i].first);
    }
}

TEST(EventQueue, DescheduledEventNeverFiresUnderStepping)
{
    EventQueue eq;
    int fired = 0;
    bool doomed = false;
    eq.schedule([&] { ++fired; }, 1);
    EventId id = eq.schedule([&] { doomed = true; }, 2);
    eq.schedule([&] { ++fired; }, 3);
    EXPECT_EQ(eq.size(), 3u);

    EXPECT_TRUE(eq.deschedule(id));
    // The tombstone still occupies a heap slot but size() must not
    // count it.
    EXPECT_EQ(eq.size(), 2u);

    EXPECT_TRUE(eq.step());
    EXPECT_EQ(eq.curTick(), 1u);
    EXPECT_TRUE(eq.step()); // skips the tombstone, fires tick 3
    EXPECT_EQ(eq.curTick(), 3u);
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(doomed);
}

TEST(EventQueue, DescheduleAllLeavesQueueEmpty)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (Tick t = 1; t <= 20; ++t)
        ids.push_back(eq.schedule([] { FAIL(); }, t));
    for (EventId id : ids)
        EXPECT_TRUE(eq.deschedule(id));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, ResetDuringRunDropsRemainingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule([&] {
        ++fired;
        eq.reset();
        // Post-reset time restarts at zero and scheduling works.
        eq.schedule([&] { ++fired; }, 2);
    }, 10);
    eq.schedule([&] { FAIL() << "survived reset"; }, 20);
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 2u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutedEventsCountsFiringsNotDeschedules)
{
    EventQueue eq;
    eq.schedule([] {}, 1);
    EventId id = eq.schedule([] {}, 2);
    eq.schedule([] {}, 3);
    eq.deschedule(id);
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 2u);
    eq.reset();
    EXPECT_EQ(eq.executedEvents(), 0u);
}

TEST(EventQueue, HeapOrderUnderManyRandomishTicks)
{
    // Deterministic pseudo-random tick pattern: events must come
    // out in nondecreasing tick order whatever the insert order.
    EventQueue eq;
    std::vector<Tick> seen;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 500; ++i) {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        Tick t = x % 97;
        eq.schedule([&seen, &eq] { seen.push_back(eq.curTick()); }, t);
    }
    eq.run();
    ASSERT_EQ(seen.size(), 500u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_LE(seen[i - 1], seen[i]);
}

TEST(EventQueue, KeyedEventsFireInKeyOrderWithinOneTick)
{
    // scheduleKeyed() imposes an explicit total order on same-tick
    // events, independent of schedule order -- the mechanism the
    // PDES engine uses to replay a partitioned run in the global
    // queue's order.
    EventQueue eq;
    std::vector<std::uint64_t> order;
    for (std::uint64_t key : {9u, 2u, 7u, 1u, 5u})
        eq.scheduleKeyed([&order, key] { order.push_back(key); },
                         10, key);
    eq.run();
    EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 5, 7, 9}));
}

TEST(EventQueue, KeyedTiesBreakInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.scheduleKeyed([&order, i] { order.push_back(i); }, 3, 77);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, KeyOrdersOnlyWithinOneTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleKeyed([&] { order.push_back(1); }, 5, 100);
    eq.scheduleKeyed([&] { order.push_back(2); }, 6, 1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, CompactionBoundsTombstones)
{
    // Property test for tombstone compaction: under a deterministic
    // pseudo-random schedule/deschedule mix, dead slots never exceed
    // half the heap, live events are never lost, and the surviving
    // events still fire in order.
    EventQueue eq;
    std::vector<EventId> live;
    std::vector<Tick> fired;
    std::size_t scheduled = 0, descheduled = 0;
    std::uint64_t x = 0x243f6a8885a308d3ull;
    auto rnd = [&x] {
        x ^= x << 13; x ^= x >> 7; x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 4000; ++i) {
        if (live.empty() || rnd() % 3 != 0) {
            Tick t = 1 + rnd() % 1000;
            live.push_back(eq.schedule(
                [&fired, &eq] { fired.push_back(eq.curTick()); }, t));
            ++scheduled;
        } else {
            std::size_t pick = rnd() % live.size();
            EXPECT_TRUE(eq.deschedule(live[pick]));
            live[pick] = live.back();
            live.pop_back();
            ++descheduled;
        }
        // The compaction invariant: deschedule() rebuilds once
        // tombstones outnumber live events, so at rest dead slots
        // can never exceed the live population (plus one for the
        // pre-compaction peak at tiny sizes).
        EXPECT_LE(eq.tombstoneSlots(), eq.size() + 1);
        EXPECT_EQ(eq.size(), live.size());
    }
    ASSERT_GT(descheduled, 100u);
    EXPECT_EQ(eq.run(), scheduled - descheduled);
    EXPECT_EQ(fired.size(), scheduled - descheduled);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_EQ(eq.tombstoneSlots(), 0u);
}

TEST(EventQueue, DescheduleHeavyQueueStaysCompact)
{
    // Timer-wheel pattern: every scheduled event is cancelled.
    // Without compaction the heap would grow without bound; with it
    // the heap tracks the live population.
    EventQueue eq;
    for (int round = 0; round < 100; ++round) {
        std::vector<EventId> ids;
        for (Tick t = 1; t <= 50; ++t)
            ids.push_back(eq.schedule([] { FAIL(); }, t + round));
        for (EventId id : ids)
            EXPECT_TRUE(eq.deschedule(id));
        EXPECT_LE(eq.tombstoneSlots(), 51u);
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, StaleHandleMissesTheEventReusingItsSlot)
{
    // Handles carry their slot's generation: once an event fires or
    // is descheduled, its slot may go to a new event, and the old
    // handle must neither cancel that event nor stop it firing.
    EventQueue eq;
    EventId fired = eq.schedule([] {}, 1);
    eq.run();
    int reused = 0;
    eq.schedule([&] { ++reused; }, 2);
    EXPECT_FALSE(eq.deschedule(fired));
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(reused, 1);

    // Descheduling the only event compacts the heap at once, so its
    // slot is free again before the next schedule.
    EventId cancelled = eq.schedule([] { FAIL(); }, 3);
    EXPECT_TRUE(eq.deschedule(cancelled));
    EXPECT_EQ(eq.tombstoneSlots(), 0u);
    eq.schedule([&] { ++reused; }, 4);
    EXPECT_FALSE(eq.deschedule(cancelled));
    EXPECT_FALSE(eq.deschedule(fired));
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(reused, 2);
}

TEST(EventQueue, CallbackGrowingTheSlabKeepsTickSeqOrder)
{
    // The running callback schedules far more events than the slab
    // holds, so the slab reallocates while that callback executes
    // (it was moved out of its slot first). Every event must fire,
    // in (tick, schedule order).
    EventQueue eq;
    constexpr int Burst = 2000;
    std::vector<std::pair<Tick, int>> order;
    std::uint64_t x = 0x13198a2e03707344ull;
    eq.schedule([&] {
        for (int i = 0; i < Burst; ++i) {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            Tick t = eq.curTick() + x % 37;
            eq.schedule([&order, &eq, i] {
                order.emplace_back(eq.curTick(), i);
            }, t);
        }
    }, 5);
    EXPECT_EQ(eq.run(), Burst + 1u);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(Burst));
    for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_TRUE(order[i - 1].first < order[i].first ||
                    (order[i - 1].first == order[i].first &&
                     order[i - 1].second < order[i].second))
            << "event " << order[i].second << " out of order";
    }
}
