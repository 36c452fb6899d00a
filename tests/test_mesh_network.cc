/**
 * @file
 * Integration tests for the mesh network and the channel-sliced
 * double network.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "common/rng.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

/** Collects delivered packets. */
struct Collector : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }

    void
    deliver(PacketPtr pkt, Cycle now) override
    {
        delivered.emplace_back(now, std::move(pkt));
    }

    std::vector<std::pair<Cycle, PacketPtr>> delivered;
};

MeshNetworkParams
baseNet()
{
    MeshNetworkParams p;
    p.seed = 99;
    return p;
}

PacketPtr
makePkt(const Network &net, NodeId src, NodeId dst, MemOp op,
        int proto)
{
    auto pkt = makePacket();
    pkt->src = src;
    pkt->dst = dst;
    pkt->op = op;
    pkt->protoClass = proto;
    pkt->sizeFlits = net.packetFlits(op);
    pkt->sizeBytes = memOpBytes(op);
    return pkt;
}

TEST(MeshNetwork, DeliversSinglePacket)
{
    MeshNetwork net(baseNet());
    const auto &topo = net.topology();
    Collector sink;
    const NodeId src = topo.nodeAt(0, 0);
    const NodeId dst = topo.nodeAt(3, 4);
    net.setSink(dst, &sink);

    net.inject(makePkt(net, src, dst, MemOp::READ_REQUEST, 0), 0);
    for (Cycle t = 0; t < 100; ++t)
        net.cycle(t);
    ASSERT_EQ(sink.delivered.size(), 1u);
    EXPECT_TRUE(net.drained());
    EXPECT_EQ(net.stats().packetsInjected, 1u);
    EXPECT_EQ(net.stats().packetsEjected, 1u);
}

TEST(MeshNetwork, ZeroLoadLatencyMatchesPipeline)
{
    // 7 hops x (4-stage pipeline + 1-cycle channel) for a 1-flit
    // packet, plus ejection; Sec. III-B's 5-cycle-per-hop baseline.
    MeshNetwork net(baseNet());
    const auto &topo = net.topology();
    Collector sink;
    const NodeId src = topo.nodeAt(0, 0);
    const NodeId dst = topo.nodeAt(3, 4);
    net.setSink(dst, &sink);
    net.inject(makePkt(net, src, dst, MemOp::READ_REQUEST, 0), 0);
    for (Cycle t = 0; t < 100; ++t)
        net.cycle(t);
    const double lat = net.stats().netLatency.mean();
    const double hops = topo.hopDistance(src, dst);
    EXPECT_GE(lat, hops * 5.0);
    EXPECT_LE(lat, hops * 5.0 + 8.0);
}

TEST(MeshNetwork, MultiFlitPacketsArriveCompletely)
{
    MeshNetwork net(baseNet());
    const auto &topo = net.topology();
    Collector sink;
    const NodeId dst = topo.nodeAt(5, 5);
    net.setSink(dst, &sink);
    for (unsigned i = 0; i < 4; ++i) {
        net.inject(makePkt(net, topo.nodeAt(i, 0), dst,
                           MemOp::READ_REPLY, 1), 0);
    }
    for (Cycle t = 0; t < 300; ++t)
        net.cycle(t);
    EXPECT_EQ(sink.delivered.size(), 4u);
    EXPECT_EQ(net.stats().flitsEjected, 16u); // 4 x 4-flit replies
    EXPECT_TRUE(net.drained());
}

TEST(MeshNetwork, PacketsOnOneVcLaneStayOrdered)
{
    MeshNetworkParams p = baseNet();
    p.vcsPerClass = 1;
    MeshNetwork net(p);
    const auto &topo = net.topology();
    Collector sink;
    const NodeId src = topo.nodeAt(0, 0);
    const NodeId dst = topo.nodeAt(4, 4);
    net.setSink(dst, &sink);
    Cycle t = 0;
    for (unsigned i = 0; i < 5; ++i) {
        auto pkt = makePkt(net, src, dst, MemOp::READ_REQUEST, 0);
        pkt->tag = i;
        while (!net.canInject(src, 0))
            net.cycle(t++);
        net.inject(std::move(pkt), t);
    }
    for (Cycle e = t + 300; t < e; ++t)
        net.cycle(t);
    ASSERT_EQ(sink.delivered.size(), 5u);
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(sink.delivered[i].second->tag, i);
}

TEST(MeshNetwork, ManyToFewStressAllDelivered)
{
    MeshNetworkParams p = baseNet();
    p.topo.placement = McPlacement::CHECKERBOARD;
    p.topo.checkerboardRouters = true;
    p.routing = "cr";
    MeshNetwork net(p);
    const auto &topo = net.topology();
    std::map<NodeId, Collector> sinks;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sinks[n]);

    Rng rng(3);
    Cycle t = 0;
    unsigned sent = 0;
    while (sent < 200) {
        for (NodeId core : topo.computeNodes()) {
            if (sent >= 200)
                break;
            if (net.canInject(core, 0)) {
                const NodeId mc = rng.pick(topo.mcNodes());
                net.inject(makePkt(net, core, mc,
                                   MemOp::READ_REQUEST, 0), t);
                ++sent;
            }
        }
        net.cycle(t++);
    }
    for (Cycle e = t + 2000; t < e && !net.drained(); ++t)
        net.cycle(t);
    EXPECT_TRUE(net.drained());
    std::size_t got = 0;
    for (NodeId mc : topo.mcNodes())
        got += sinks[mc].delivered.size();
    EXPECT_EQ(got, 200u);
}

TEST(MeshNetwork, SinkBackpressureHoldsPackets)
{
    struct Refuser : PacketSink
    {
        bool tryReserve(const Packet &) override { return allow; }
        void deliver(PacketPtr, Cycle) override { ++count; }
        bool allow = false;
        unsigned count = 0;
    };
    MeshNetwork net(baseNet());
    const auto &topo = net.topology();
    Refuser sink;
    const NodeId dst = topo.nodeAt(1, 0);
    net.setSink(dst, &sink);
    net.inject(makePkt(net, topo.nodeAt(0, 0), dst,
                       MemOp::READ_REQUEST, 0), 0);
    Cycle t = 0;
    for (; t < 100; ++t)
        net.cycle(t);
    EXPECT_EQ(sink.count, 0u);
    EXPECT_FALSE(net.drained());
    sink.allow = true;
    for (; t < 200; ++t)
        net.cycle(t);
    EXPECT_EQ(sink.count, 1u);
    EXPECT_TRUE(net.drained());
}

TEST(DoubleNetwork, SlicesByProtocolClass)
{
    MeshNetworkParams p = baseNet();
    p.topo.placement = McPlacement::CHECKERBOARD;
    p.topo.checkerboardRouters = true;
    p.routing = "cr";
    DoubleNetwork net(p);
    EXPECT_EQ(net.flitBytes(), 8u); // half-width slices
    EXPECT_EQ(net.packetFlits(MemOp::READ_REPLY), 8u);
    EXPECT_EQ(net.packetFlits(MemOp::READ_REQUEST), 1u);

    const auto &topo = net.topology();
    Collector core_sink;
    Collector mc_sink;
    const NodeId core = topo.computeNodes()[0];
    const NodeId mc = topo.mcNodes()[0];
    net.setSink(core, &core_sink);
    net.setSink(mc, &mc_sink);

    net.inject(makePkt(net, core, mc, MemOp::READ_REQUEST, 0), 0);
    net.inject(makePkt(net, mc, core, MemOp::READ_REPLY, 1), 0);
    for (Cycle t = 0; t < 200; ++t)
        net.cycle(t);
    EXPECT_EQ(mc_sink.delivered.size(), 1u);
    EXPECT_EQ(core_sink.delivered.size(), 1u);
    EXPECT_TRUE(net.drained());
    // Both slices share one stats block.
    EXPECT_EQ(net.stats().packetsEjected, 2u);
}

TEST(DoubleNetwork, InjectSpaceIsPerSlice)
{
    MeshNetworkParams p = baseNet();
    p.topo.placement = McPlacement::CHECKERBOARD;
    p.topo.checkerboardRouters = true;
    p.routing = "cr";
    DoubleNetwork net(p);
    const NodeId n = net.topology().computeNodes()[0];
    EXPECT_EQ(net.injectSpace(n, 0), p.ni.injQueueCap);
    EXPECT_EQ(net.injectSpace(n, 1), p.ni.injQueueCap);
}

TEST(NetStats, PerNodeRatesAndAcceptedBytes)
{
    NetStats s(4);
    s.cycles = 100;
    s.nodeInjectedFlits = {200, 0, 0, 0};
    s.nodeEjectedBytes = {0, 0, 400, 0};
    EXPECT_DOUBLE_EQ(s.injectionRate({0}), 2.0);
    EXPECT_DOUBLE_EQ(s.injectionRate({0, 1}), 1.0);
    EXPECT_DOUBLE_EQ(s.acceptedBytesPerCyclePerNode(),
                     400.0 / (100.0 * 4.0));
    NetStats empty(0);
    EXPECT_DOUBLE_EQ(empty.acceptedBytesPerCyclePerNode(), 0.0);
    EXPECT_DOUBLE_EQ(empty.injectionRate({}), 0.0);
}

TEST(MeshNetwork, AgePriorityIsDeterministicAndDelivers)
{
    MeshNetworkParams p = baseNet();
    p.agePriority = true;
    auto run_once = [&] {
        MeshNetwork net(p);
        const auto &topo = net.topology();
        Collector sink;
        for (NodeId mc : topo.mcNodes())
            net.setSink(mc, &sink);
        Rng rng(4);
        Cycle t = 0;
        unsigned sent = 0;
        while (sent < 60) {
            const NodeId core = rng.pick(topo.computeNodes());
            if (net.canInject(core, 0)) {
                net.inject(makePkt(net, core, rng.pick(topo.mcNodes()),
                                   MemOp::READ_REQUEST, 0), t);
                ++sent;
            }
            net.cycle(t++);
        }
        for (Cycle e = t + 1000; t < e && !net.drained(); ++t)
            net.cycle(t);
        EXPECT_TRUE(net.drained());
        EXPECT_EQ(sink.delivered.size(), 60u);
        return net.stats().netLatency.mean();
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(MakeMeshNetwork, FactorySelectsKind)
{
    MeshNetworkParams p = baseNet();
    auto single = makeMeshNetwork(p, false);
    EXPECT_EQ(single->flitBytes(), 16u);
    p.topo.placement = McPlacement::CHECKERBOARD;
    p.topo.checkerboardRouters = true;
    p.routing = "cr";
    auto dbl = makeMeshNetwork(p, true);
    EXPECT_EQ(dbl->flitBytes(), 8u);
}

} // namespace
} // namespace tenoc
