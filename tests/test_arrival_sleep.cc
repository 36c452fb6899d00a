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
 *    fired and will never fire again);
 *  - whole-network equivalence: with MeshNetworkParams::arrivalSleep
 *    on and off every statistic of a run must be identical, across
 *    idle-skip, channel slicing, long channels and link-stall
 *    fault injection; TENOC_ARRIVAL_SLEEP overrides the setting only
 *    when it is exactly 0 or 1.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "noc/arrival.hh"
#include "noc/channel.hh"
#include "noc/mesh_network.hh"

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
    // Mark-on-send would flag the receiver now; the wheel must not.
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

// --- Whole-network equivalence ---

/** Accepts everything, keeps nothing. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

void
expectStatsEqual(const NetStats &a, const NetStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.packetsInjected, b.packetsInjected);
    EXPECT_EQ(a.packetsEjected, b.packetsEjected);
    EXPECT_EQ(a.flitsInjected, b.flitsInjected);
    EXPECT_EQ(a.flitsEjected, b.flitsEjected);
    EXPECT_EQ(a.nodeInjectedFlits, b.nodeInjectedFlits);
    EXPECT_EQ(a.nodeEjectedFlits, b.nodeEjectedFlits);
    EXPECT_EQ(a.totalLatency.count(), b.totalLatency.count());
    EXPECT_EQ(a.totalLatency.sum(), b.totalLatency.sum());
    EXPECT_EQ(a.netLatency.sum(), b.netLatency.sum());
    EXPECT_EQ(a.totalLatencyHist.buckets(),
              b.totalLatencyHist.buckets());
    EXPECT_EQ(a.queueLatencyHist.buckets(),
              b.queueLatencyHist.buckets());
}

/** Seeded request/reply driver; @return the cycle drained() turned. */
Cycle
drive(Network &net, std::uint64_t seed, Cycle cycles)
{
    DropSink sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    Rng rng(seed);
    Cycle now = 0;
    for (; now < cycles; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(0.05) && net.canInject(core, 0)) {
                auto pkt = makePacket();
                pkt->src = core;
                pkt->dst = rng.pick(topo.mcNodes());
                pkt->op = MemOp::READ_REQUEST;
                pkt->protoClass = 0;
                pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
                pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
                net.inject(std::move(pkt), now);
            }
        }
        for (NodeId mc : topo.mcNodes()) {
            if (rng.nextBool(0.12) && net.canInject(mc, 1)) {
                auto pkt = makePacket();
                pkt->src = mc;
                pkt->dst = rng.pick(topo.computeNodes());
                pkt->op = MemOp::READ_REPLY;
                pkt->protoClass = 1;
                pkt->sizeFlits = net.packetFlits(MemOp::READ_REPLY);
                pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
                net.inject(std::move(pkt), now);
            }
        }
        net.cycle(now);
    }
    while (!net.drained() && now < cycles + 100000)
        net.cycle(now++);
    EXPECT_TRUE(net.drained());
    return now;
}

MeshNetworkParams
baseParams(std::uint64_t seed)
{
    MeshNetworkParams p;
    p.seed = seed;
    p.validate = true;
    p.validateInterval = 16;
    return p;
}

void
expectArrivalSleepInvariant(MeshNetworkParams p, bool sliced,
                            std::uint64_t seed)
{
    p.arrivalSleep = false;
    const auto off = makeMeshNetwork(p, sliced);
    p.arrivalSleep = true;
    const auto on = makeMeshNetwork(p, sliced);
    const Cycle done_off = drive(*off, seed * 17 + 3, 2000);
    const Cycle done_on = drive(*on, seed * 17 + 3, 2000);
    EXPECT_EQ(done_off, done_on);
    expectStatsEqual(off->stats(), on->stats());
}

class ArrivalSleepEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool, bool>>
{};

TEST_P(ArrivalSleepEquivalence, MatchesMarkOnSend)
{
    const auto [seed, idle_skip, sliced] = GetParam();
    MeshNetworkParams p = baseParams(seed);
    p.idleSkip = idle_skip;
    expectArrivalSleepInvariant(p, sliced, seed);
}

std::string
arrivalCaseName(const ::testing::TestParamInfo<
                std::tuple<std::uint64_t, bool, bool>> &info)
{
    const auto [seed, idle_skip, sliced] = info.param;
    std::string s = idle_skip ? "skip" : "full";
    s += sliced ? "_double_" : "_single_";
    // "t1" (one cycle thread) keeps the established case ids stable.
    s += "t1_" + std::to_string(seed);
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    TogglesAndSeeds, ArrivalSleepEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 77),
                       ::testing::Bool(), ::testing::Bool()),
    arrivalCaseName);

TEST(ArrivalSleepEquivalence, LongChannelLatency)
{
    // Multi-cycle links park several entries per channel in the wheel.
    MeshNetworkParams p = baseParams(4);
    p.channelLatency = 5;
    expectArrivalSleepInvariant(p, false, 4);
}

TEST(ArrivalSleepEquivalence, LinkStallFaults)
{
    // Transient link stalls consume wheel wakes while the channel
    // delivers nothing; the stall-clear re-mark and the readInputs
    // keep-bit must together never strand a flit.
    MeshNetworkParams p = baseParams(6);
    p.faults.linkStallRate = 2e-3;
    p.faults.linkStallDuration = 12;
    p.faults.seed = 99;
    expectArrivalSleepInvariant(p, false, 6);
}

TEST(ArrivalSleepEquivalence, AgePriorityAllocator)
{
    MeshNetworkParams p = baseParams(5);
    p.agePriority = true;
    expectArrivalSleepInvariant(p, false, 5);
}

} // namespace
} // namespace tenoc
