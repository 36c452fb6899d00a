/**
 * @file
 * Tests for the perfect and bandwidth-limited ideal networks.
 */

#include <gtest/gtest.h>

#include "noc/ideal_network.hh"

namespace tenoc
{
namespace
{

struct Collector : PacketSink
{
    bool tryReserve(const Packet &) override { return allow; }
    void deliver(PacketPtr, Cycle now) override
    {
        times.push_back(now);
    }
    bool allow = true;
    std::vector<Cycle> times;
};

PacketPtr
pkt(NodeId src, NodeId dst, unsigned flits)
{
    auto p = makePacket();
    p->src = src;
    p->dst = dst;
    p->sizeFlits = flits;
    p->sizeBytes = flits * 16;
    return p;
}

IdealNetworkParams
perfectParams()
{
    IdealNetworkParams p;
    return p;
}

TEST(IdealNetwork, PerfectDeliversImmediately)
{
    IdealNetwork net(perfectParams());
    Collector sink;
    net.setSink(7, &sink);
    net.inject(pkt(0, 7, 4), 10);
    net.cycle(10);
    ASSERT_EQ(sink.times.size(), 1u);
    EXPECT_EQ(sink.times[0], 10u);
    EXPECT_TRUE(net.drained());
}

TEST(IdealNetwork, PerfectHasNoBandwidthLimit)
{
    IdealNetwork net(perfectParams());
    Collector sink;
    net.setSink(3, &sink);
    for (int i = 0; i < 100; ++i)
        net.inject(pkt(static_cast<NodeId>(i % 36), 3, 4), 0);
    net.cycle(0);
    EXPECT_EQ(sink.times.size(), 100u);
}

TEST(IdealNetwork, SinkBackpressureQueues)
{
    IdealNetwork net(perfectParams());
    Collector sink;
    sink.allow = false;
    net.setSink(5, &sink);
    net.inject(pkt(0, 5, 1), 0);
    net.cycle(0);
    net.cycle(1);
    EXPECT_TRUE(sink.times.empty());
    EXPECT_FALSE(net.drained());
    sink.allow = true;
    net.cycle(2);
    ASSERT_EQ(sink.times.size(), 1u);
    EXPECT_EQ(sink.times[0], 2u);
}

TEST(IdealNetwork, BandwidthLimitEnforced)
{
    IdealNetworkParams p;
    p.bandwidthLimited = true;
    p.flitsPerCycle = 2.0;
    IdealNetwork net(p);
    Collector sink;
    net.setSink(9, &sink);
    // 10 x 4-flit packets = 40 flits: at 2 flits/cycle this needs
    // about 20 cycles (the token bucket allows small bursts).
    for (int i = 0; i < 10; ++i)
        net.inject(pkt(0, 9, 4), 0);
    Cycle done = 0;
    for (Cycle t = 0; t < 100; ++t) {
        net.cycle(t);
        if (net.drained() && done == 0)
            done = t;
    }
    EXPECT_EQ(sink.times.size(), 10u);
    EXPECT_GE(done, 14u);
    EXPECT_LE(done, 25u);
}

TEST(IdealNetwork, FractionalBandwidthAccumulates)
{
    IdealNetworkParams p;
    p.bandwidthLimited = true;
    p.flitsPerCycle = 0.5; // one flit every two cycles
    IdealNetwork net(p);
    Collector sink;
    net.setSink(1, &sink);
    for (int i = 0; i < 5; ++i)
        net.inject(pkt(0, 1, 1), 0);
    for (Cycle t = 0; t < 12; ++t)
        net.cycle(t);
    EXPECT_EQ(sink.times.size(), 5u);
    for (Cycle t = 12; t < 20; ++t)
        net.cycle(t);
    EXPECT_TRUE(net.drained());
}

TEST(IdealNetwork, StatsTrackPerNodeTraffic)
{
    IdealNetwork net(perfectParams());
    Collector sink;
    net.setSink(2, &sink);
    net.inject(pkt(1, 2, 4), 0);
    net.cycle(0);
    EXPECT_EQ(net.stats().nodeInjectedFlits[1], 4u);
    EXPECT_EQ(net.stats().nodeEjectedFlits[2], 4u);
    EXPECT_EQ(net.stats().nodeInjectedBytes[1], 64u);
}

/** Accepts at most `budget` packets per cycle (the test refills it)
 *  and logs each delivery as (node, packet addr, cycle). */
struct ThrottledSink : PacketSink
{
    struct Delivery
    {
        NodeId node;
        Addr addr;
        Cycle at;
    };

    ThrottledSink(NodeId n, std::vector<Delivery> &log) : node(n), log(log)
    {}
    bool
    tryReserve(const Packet &) override
    {
        if (budget == 0)
            return false;
        --budget;
        return true;
    }
    void
    deliver(PacketPtr p, Cycle now) override
    {
        log.push_back(Delivery{node, p->addr, now});
    }

    NodeId node;
    std::vector<Delivery> &log;
    unsigned budget = 0;
};

TEST(IdealNetwork, BackpressuredDestinationsKeepFifoOrder)
{
    IdealNetwork net(perfectParams());
    std::vector<ThrottledSink::Delivery> log;
    ThrottledSink high(30, log);
    ThrottledSink low(4, log);
    net.setSink(30, &high);
    net.setSink(4, &low);
    // Interleaved injections: five packets to node 30, three to node 4.
    for (Addr i = 0; i < 5; ++i) {
        auto to_high = pkt(0, 30, 1);
        to_high->addr = 100 + i;
        net.inject(std::move(to_high), 0);
        if (i < 3) {
            auto to_low = pkt(1, 4, 1);
            to_low->addr = 200 + i;
            net.inject(std::move(to_low), 0);
        }
    }
    // Both sinks blocked: nothing moves, nothing is lost.
    net.cycle(0);
    EXPECT_TRUE(log.empty());
    EXPECT_FALSE(net.drained());

    // Partial delivery: two to each sink per cycle.
    high.budget = low.budget = 2;
    net.cycle(1);
    ASSERT_EQ(log.size(), 4u);
    EXPECT_FALSE(net.drained());
    high.budget = low.budget = 2;
    net.cycle(2);
    ASSERT_EQ(log.size(), 7u); // node 4 ran dry after three
    EXPECT_FALSE(net.drained());

    // Only node 30 is still busy; node 4's queue stays empty.
    high.budget = 0;
    low.budget = 5;
    net.cycle(3);
    EXPECT_EQ(log.size(), 7u);
    EXPECT_FALSE(net.drained());
    high.budget = 5;
    net.cycle(4);
    ASSERT_EQ(log.size(), 8u);
    EXPECT_TRUE(net.drained());

    // Ascending node order within a cycle, FIFO order per node.
    const std::vector<std::pair<NodeId, Addr>> expect = {
        {4, 200}, {4, 201}, {30, 100}, {30, 101},
        {4, 202}, {30, 102}, {30, 103}, {30, 104}};
    const std::vector<Cycle> at = {1, 1, 1, 1, 2, 2, 2, 4};
    for (std::size_t i = 0; i < expect.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(log[i].node, expect[i].first);
        EXPECT_EQ(log[i].addr, expect[i].second);
        EXPECT_EQ(log[i].at, at[i]);
    }
}

} // namespace
} // namespace tenoc
