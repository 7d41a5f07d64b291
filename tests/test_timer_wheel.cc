/**
 * @file
 * Unit tests for governor timers: Simulator::armTimer()/cancelTimer()
 * at exact granularity, and the timer wheel that batches the same
 * Events at a coarse granularity -- firing exactness, quantization,
 * eager cancellation, re-arming from callbacks, overflow-heap
 * migration and the deschedule-when-empty discipline.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "sim/timer_wheel.hh"

using namespace holdcsim;

namespace {

struct WheelFixture : ::testing::Test {
    Simulator sim;
    /** Every firing as (timer id, tick). */
    std::vector<std::pair<int, Tick>> fired;
    std::deque<EventFunctionWrapper> timers;

    /** A fresh timer Event that records its firings under @p id. */
    Event &
    timer(int id)
    {
        timers.emplace_back(
            [this, id] { fired.emplace_back(id, sim.curTick()); },
            "test.timer", Event::powerPriority);
        return timers.back();
    }

    const TimerWheel::Stats &stats() const
    {
        return sim.timerWheel()->stats();
    }
};

} // namespace

TEST_F(WheelFixture, ExactGranularityArmsPlainQueueEvents)
{
    EXPECT_EQ(sim.timerWheel(), nullptr);
    Event &a = timer(1);
    sim.armTimer(a, 10);
    EXPECT_TRUE(a.scheduled());
    EXPECT_EQ(a.when(), 10u);
    sim.armTimer(a, 30); // re-arming moves the one event
    EXPECT_EQ(a.when(), 30u);
    Event &b = timer(2);
    sim.armTimer(b, 20);
    sim.cancelTimer(b);
    EXPECT_FALSE(b.scheduled());
    sim.cancelTimer(b); // disarming an idle timer is a no-op
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], std::make_pair(1, Tick{30}));
}

TEST_F(WheelFixture, GranularityIsFixedOnceATimerIsArmed)
{
    sim.setTimerGranularity(100);
    sim.setTimerGranularity(0); // still unarmed: may change its mind
    EXPECT_EQ(sim.timerWheel(), nullptr);
    sim.armTimer(timer(1), 10);
    EXPECT_THROW(sim.setTimerGranularity(100), FatalError);
    sim.run();
}

TEST_F(WheelFixture, FiresExactlyAtUnitGranularity)
{
    sim.setTimerGranularity(1);
    sim.armTimer(timer(7), 123);
    sim.armTimer(timer(8), 456);
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], std::make_pair(7, Tick{123}));
    EXPECT_EQ(fired[1], std::make_pair(8, Tick{456}));
    EXPECT_EQ(sim.curTick(), 456u);
}

TEST_F(WheelFixture, QuantizesDeadlinesUpToBucketBoundaries)
{
    sim.setTimerGranularity(100);
    sim.armTimer(timer(1), 1);   // -> 100
    sim.armTimer(timer(2), 100); // already on a boundary
    sim.armTimer(timer(3), 101); // -> 200
    sim.run();
    ASSERT_EQ(fired.size(), 3u);
    // Timers 1 and 2 share the 100-tick boundary, in arm order.
    EXPECT_EQ(fired[0], std::make_pair(1, Tick{100}));
    EXPECT_EQ(fired[1], std::make_pair(2, Tick{100}));
    EXPECT_EQ(fired[2], std::make_pair(3, Tick{200}));
    // One tick event per occupied boundary, not per timer.
    EXPECT_EQ(stats().tickEvents, 2u);
    EXPECT_EQ(stats().maxBatch, 2u);
}

TEST_F(WheelFixture, NeverFiresEarly)
{
    sim.setTimerGranularity(64);
    sim.runUntil(10); // arm off a non-boundary tick
    sim.armTimer(timer(1), 1);
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_GE(fired[0].second, 11u);
    EXPECT_EQ(fired[0].second % 64, 0u);
}

TEST_F(WheelFixture, CancelPreventsFiring)
{
    sim.setTimerGranularity(1);
    Event &t = timer(1);
    sim.armTimer(t, 100);
    EXPECT_FALSE(t.scheduled()); // on the wheel, not in the queue
    EXPECT_EQ(t.when(), 100u);
    EXPECT_EQ(sim.timerWheel()->live(), 1u);
    sim.cancelTimer(t);
    sim.cancelTimer(t); // a second cancel is a no-op
    // The wheel descheduled its tick event: nothing left to run.
    EXPECT_FALSE(sim.hasPendingEvents());
    sim.run();
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(stats().cancelled, 1u);
}

TEST_F(WheelFixture, ReArmMovesTheTimer)
{
    sim.setTimerGranularity(10);
    Event &t = timer(1);
    sim.armTimer(t, 50);
    sim.armTimer(t, 15); // -> 20; the 50 deadline is gone
    EXPECT_EQ(sim.timerWheel()->live(), 1u);
    sim.run();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], std::make_pair(1, Tick{20}));
    EXPECT_EQ(stats().armed, 2u);
    EXPECT_EQ(stats().cancelled, 1u);
}

TEST_F(WheelFixture, CancelDuringBatchSuppressesLaterEntries)
{
    // Two timers on one boundary; the first callback cancels the
    // second before it fires.
    sim.setTimerGranularity(1);
    Event &victim = timer(9);
    int first_fired = 0;
    EventFunctionWrapper first(
        [&] {
            ++first_fired;
            sim.cancelTimer(victim);
        },
        "test.canceller");
    sim.armTimer(first, 50); // arm order is firing order
    sim.armTimer(victim, 50);
    sim.run();
    EXPECT_EQ(first_fired, 1);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(sim.timerWheel()->live(), 0u);
}

TEST_F(WheelFixture, CancelDuringBatchLeavesNoPhantomBoundary)
{
    // A cancel inside a batch must not leave the fired boundary's
    // slot looking occupied: a lap later that slot would schedule a
    // spurious, empty wheel.tick.
    sim.setTimerGranularity(1);
    Event &victim = timer(9);
    EventFunctionWrapper first([&] { sim.cancelTimer(victim); },
                               "test.canceller");
    sim.armTimer(first, 50);
    sim.armTimer(victim, 50);
    sim.run();
    ASSERT_EQ(stats().tickEvents, 1u);
    sim.armTimer(timer(1), 10);   // fires at 60
    sim.armTimer(timer(2), 2000); // overflow heap, fires at 2050
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], std::make_pair(2, Tick{2050}));
    // Boundaries 50, 60 and 2050 -- no tick at 50 + 1024.
    EXPECT_EQ(stats().tickEvents, 3u);
}

TEST_F(WheelFixture, ReArmFromCallbackIncludingZeroDelay)
{
    sim.setTimerGranularity(1);
    std::vector<Tick> fires;
    EventFunctionWrapper later([&] { fires.push_back(sim.curTick()); },
                               "test.later");
    EventFunctionWrapper chain(
        [&] {
            fires.push_back(sim.curTick());
            // Chain: re-arm with zero delay; must fire at this very
            // tick (not a full wheel lap later).
            if (fires.size() < 3)
                sim.armTimer(chain, 0);
        },
        "test.chain");
    EventFunctionWrapper spawner(
        [&] {
            fires.push_back(sim.curTick());
            sim.armTimer(later, 25);
        },
        "test.spawner");
    sim.armTimer(chain, 10);
    sim.armTimer(spawner, 10);
    sim.run();
    // The chain fires at 10 and once more at tick 10; the spawner
    // fires at 10 and arms the last timer at 35.
    ASSERT_EQ(fires.size(), 4u);
    EXPECT_EQ(fires[0], 10u);
    EXPECT_EQ(fires[1], 10u);
    EXPECT_EQ(fires[2], 10u);
    EXPECT_EQ(fires[3], 35u);
    EXPECT_EQ(sim.curTick(), 35u);
}

TEST_F(WheelFixture, FarDeadlinesParkInOverflowAndMigrateBack)
{
    TimerWheel wheel(sim, 1, 16); // tiny ring: horizon = 16 ticks
    EXPECT_EQ(wheel.numSlots(), 16u);
    wheel.arm(timer(1), 5);    // in the ring
    wheel.arm(timer(2), 1000); // far beyond the horizon
    wheel.arm(timer(3), 2000); // even farther
    sim.run();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], std::make_pair(1, Tick{5}));
    EXPECT_EQ(fired[1], std::make_pair(2, Tick{1000}));
    EXPECT_EQ(fired[2], std::make_pair(3, Tick{2000}));
    EXPECT_GT(wheel.stats().overflowMigrations, 0u);
}

TEST_F(WheelFixture, CancelWhileParkedInOverflow)
{
    TimerWheel wheel(sim, 1, 16);
    wheel.arm(timer(1), 5);
    Event &far = timer(2);
    wheel.arm(far, 1000);
    wheel.arm(timer(3), 3000);
    wheel.cancel(far);
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0].first, 1);
    EXPECT_EQ(fired[1], std::make_pair(3, Tick{3000}));
    EXPECT_EQ(wheel.live(), 0u);
    // Removed eagerly: the heap never migrated the cancelled timer.
    EXPECT_EQ(wheel.stats().overflowMigrations, 1u);
}

TEST_F(WheelFixture, BatchFiresInArmOrderAcrossClients)
{
    sim.setTimerGranularity(256); // everything lands on boundary 256
    // Timers 1 and 3 belong to another owner than the fixture's.
    EventFunctionWrapper o1(
        [&] { fired.emplace_back(1, sim.curTick()); }, "other.1");
    EventFunctionWrapper o3(
        [&] { fired.emplace_back(3, sim.curTick()); }, "other.3");
    sim.armTimer(timer(0), 10);
    sim.armTimer(o1, 40);
    sim.armTimer(timer(2), 30);
    sim.armTimer(o3, 20);
    sim.run();
    ASSERT_EQ(fired.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(fired[i], std::make_pair(i, Tick{256}));
    EXPECT_EQ(stats().tickEvents, 1u);
    EXPECT_EQ(stats().maxBatch, 4u);
}

TEST_F(WheelFixture, StatsCountArmCancelFire)
{
    sim.setTimerGranularity(1);
    Event &a = timer(0);
    sim.armTimer(a, 10);
    sim.armTimer(timer(1), 20);
    sim.armTimer(timer(2), 30);
    EXPECT_EQ(sim.timerWheel()->live(), 3u);
    sim.cancelTimer(a);
    EXPECT_EQ(sim.timerWheel()->live(), 2u);
    sim.run();
    EXPECT_EQ(sim.timerWheel()->live(), 0u);
    const TimerWheel::Stats &s = stats();
    EXPECT_EQ(s.armed, 3u);
    EXPECT_EQ(s.cancelled, 1u);
    EXPECT_EQ(s.fired, 2u);
    EXPECT_EQ(s.maxLive, 3u);
    // Three dispatches: cancellation leaves the already scheduled
    // tick in place, so boundary 10 fires an empty batch.
    EXPECT_EQ(s.tickEvents, 3u);
}

TEST_F(WheelFixture, EmptyWheelAfterLongIdleGapStaysExact)
{
    // The window must snap forward when the first timer after a long
    // quiet period is armed, or near deadlines would land in the
    // overflow heap (correct but slow) or worse, a stale slot.
    TimerWheel wheel(sim, 1, 16);
    wheel.arm(timer(1), 3);
    sim.run();
    EXPECT_EQ(sim.curTick(), 3u);
    sim.runUntil(1'000'000); // idle gap many laps long
    wheel.arm(timer(2), 4);
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[1], std::make_pair(2, Tick{1'000'004}));
}

TEST_F(WheelFixture, RejectsZeroGranularity)
{
    EXPECT_THROW(TimerWheel(sim, 0), FatalError);
}

TEST_F(WheelFixture, RejectsOverflowingDeadline)
{
    sim.setTimerGranularity(1);
    sim.runUntil(100);
    Event &t = timer(0);
    EXPECT_THROW(sim.armTimer(t, maxTick - 10), FatalError);
    EXPECT_EQ(sim.timerWheel()->live(), 0u);
}

TEST(WheelDeathTest, DestroyingAnArmedTimerPanics)
{
    Simulator sim;
    sim.setTimerGranularity(10);
    EXPECT_DEATH(
        {
            EventFunctionWrapper ev([] {}, "doomed");
            sim.armTimer(ev, 5);
        },
        "on the timer wheel");
}
