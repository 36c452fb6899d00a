/**
 * @file
 * Tests for arrival-scheduled channel delivery (noc/arrival.hh):
 *
 *  - ArrivalScheduler wheel mechanics: exact-cycle firing, bucket
 *    aliasing one wheel turn apart, gap sweeps when the driver skips
 *    cycles, the unprimed post-restore full sweep and the
 *    firedThrough horizon;
 *  - Channel integration: send posts a wake at the delivery cycle,
 *    stalled channels keep their pending bit alive, and clearing a
 *    stall re-marks the receiver immediately (the wheel slot already
 *    fired and will never fire again).
 *
 * Whole-network runs that let routers sleep until their next arrival
 * (idle-skip) against ticking them every cycle (full-tick) are in
 * test_idle_skip.cc.
 */

#include <gtest/gtest.h>

#include "noc/arrival.hh"
#include "noc/channel.hh"

namespace tenoc
{
namespace
{

// --- ArrivalScheduler unit tests ---

TEST(ArrivalScheduler, FiresAtExactCycle)
{
    ActiveSet set(8);
    ArrivalScheduler sched;
    sched.configure(8, 4, &set);
    sched.schedule(5, 2, 0x4);
    EXPECT_EQ(sched.scheduled(), 1u);

    sched.fire(4);
    EXPECT_EQ(sched.pending(2), 0u);
    EXPECT_FALSE(set.test(2));

    sched.fire(5);
    EXPECT_EQ(sched.pending(2), 0x4u);
    EXPECT_TRUE(set.test(2));
    EXPECT_EQ(sched.scheduled(), 0u);
}

TEST(ArrivalScheduler, AliasedBucketKeepsFutureEntry)
{
    // Two entries one full wheel turn apart land in the same bucket;
    // firing the earlier cycle must deliver only the earlier entry.
    ActiveSet set(4);
    ArrivalScheduler sched;
    sched.configure(4, 4, &set);
    // configure(latency 4) sizes the wheel at the smallest power of
    // two > latency + 1, i.e. 8 buckets.
    sched.schedule(3, 0, 0x1);
    sched.schedule(3 + 8, 1, 0x2);
    sched.fire(3);
    EXPECT_EQ(sched.pending(0), 0x1u);
    EXPECT_EQ(sched.pending(1), 0u);
    EXPECT_EQ(sched.scheduled(), 1u);
    sched.setPending(0, 0);
    set.clear(0);

    // Walk the gap one fire at a time up to the aliased cycle.
    for (Cycle c = 4; c <= 11; ++c)
        sched.fire(c);
    EXPECT_EQ(sched.pending(0), 0u);
    EXPECT_EQ(sched.pending(1), 0x2u);
    EXPECT_TRUE(set.test(1));
    EXPECT_EQ(sched.scheduled(), 0u);
}

TEST(ArrivalScheduler, GapLargerThanWheelSweepsEverything)
{
    ActiveSet set(4);
    ArrivalScheduler sched;
    sched.configure(4, 2, &set);
    sched.fire(1); // prime
    sched.schedule(3, 1, 0x1);
    sched.schedule(7, 2, 0x2);
    // A driver that skips far ahead must still deliver both.
    sched.fire(1000);
    EXPECT_EQ(sched.pending(1), 0x1u);
    EXPECT_EQ(sched.pending(2), 0x2u);
    EXPECT_EQ(sched.scheduled(), 0u);
}

TEST(ArrivalScheduler, FirstFireAfterConfigureSweepsEverything)
{
    // Post-restore path: the wheel is rebuilt by reschedulePending and
    // the first fire has no last-fire history — it must behave as a
    // full sweep and deliver every matured entry.
    ActiveSet set(4);
    ArrivalScheduler sched;
    sched.configure(4, 2, &set);
    sched.schedule(2, 0, 0x1);
    sched.schedule(9, 1, 0x2);
    EXPECT_EQ(sched.firedThrough(), 0u);
    sched.fire(9);
    EXPECT_EQ(sched.pending(0), 0x1u);
    EXPECT_EQ(sched.pending(1), 0x2u);
    EXPECT_EQ(sched.firedThrough(), 9u);
}

TEST(ArrivalScheduler, WakeNowMarksImmediately)
{
    ActiveSet set(4);
    ArrivalScheduler sched;
    sched.configure(4, 2, &set);
    sched.wakeNow(3, 0x10);
    EXPECT_EQ(sched.pending(3), 0x10u);
    EXPECT_TRUE(set.test(3));
}

// --- Channel integration ---

TEST(ArrivalChannel, SendPostsWakeAtDeliveryCycle)
{
    ActiveSet set(2);
    ArrivalScheduler sched;
    sched.configure(2, 3, &set);
    Channel<int> ch(3);
    ch.setArrivalTarget(&sched, 0, 0x1);

    ch.send(7, 10);
    // The receiver stays asleep until the delivery cycle.
    EXPECT_FALSE(set.test(0));
    sched.fire(12);
    EXPECT_FALSE(set.test(0));
    sched.fire(13);
    EXPECT_TRUE(set.test(0));
    EXPECT_EQ(sched.pending(0), 0x1u);
    EXPECT_EQ(*ch.receive(13), 7);
}

TEST(ArrivalChannel, StallClearRemarksMaturedBacklog)
{
    // The wheel wake fires into a stalled channel and is consumed;
    // clearing the stall must set the pending bit immediately or the
    // backlog would sleep forever.
    ActiveSet set(2);
    ArrivalScheduler sched;
    sched.configure(2, 1, &set);
    Channel<int> ch(1);
    ch.setArrivalTarget(&sched, 0, 0x2);

    ch.send(1, 0);
    ch.setStalled(true);
    sched.fire(1);
    EXPECT_EQ(sched.pending(0), 0x2u);
    EXPECT_FALSE(ch.receive(1).has_value()); // stalled: delivers nothing
    // The receiver's drain loop clears the bit it saw nothing behind
    // ... except that readInputs keeps it while a matured entry sits in
    // the channel (earliestArrival() <= now).  Model the worst case
    // here: the bit was fully cleared.
    sched.setPending(0, 0);
    set.clear(0);

    ch.setStalled(false);
    EXPECT_EQ(sched.pending(0), 0x2u);
    EXPECT_TRUE(set.test(0));
    EXPECT_EQ(*ch.receive(5), 1);
}

TEST(ArrivalChannel, ReschedulePendingRebuildsWheel)
{
    // Restore path: channels carry their in-flight entries but the
    // wheel starts empty; reschedulePending must repost each arrival.
    ActiveSet set(2);
    ArrivalScheduler sched;
    sched.configure(2, 2, &set);
    Channel<int> ch(2);
    ch.setArrivalTarget(&sched, 1, 0x1);
    ch.send(5, 0);
    ch.send(6, 1);

    sched.configure(2, 2, &set); // wipe, as restore does
    EXPECT_EQ(sched.scheduled(), 0u);
    ch.reschedulePending();
    EXPECT_EQ(sched.scheduled(), 2u);
    sched.fire(2);
    EXPECT_EQ(sched.pending(1), 0x1u);
    EXPECT_EQ(*ch.receive(2), 5);
    sched.fire(3);
    EXPECT_EQ(*ch.receive(3), 6);
}

} // namespace
} // namespace tenoc
