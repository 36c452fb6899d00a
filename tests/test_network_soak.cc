/**
 * @file
 * Randomized soak tests: drive every network organization with
 * bidirectional many-to-few-to-many traffic and check conservation
 * invariants (every packet delivered exactly once, to the right node,
 * with all its flits, and the network drains).  The router's internal
 * assertions (credit protocol, connectivity, turn legality) are live
 * during the soak.
 */

#include <gtest/gtest.h>

#include <map>

#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

struct SoakConfig
{
    const char *name;
    std::string routing;
    bool checkerboard; // placement + half routers
    unsigned flitBytes;
    unsigned vcsPerClass;
    unsigned mcInjPorts;
    unsigned mcEjPorts;
    bool sliced;
};

// Without a printer gtest lists the parameter as raw object bytes,
// including the address of `name`, so the listed test name changed
// from one process to the next.
void
PrintTo(const SoakConfig &cfg, std::ostream *os)
{
    *os << cfg.name;
}

class NetworkSoak : public ::testing::TestWithParam<SoakConfig>
{};

struct CountingSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }

    void
    deliver(PacketPtr pkt, Cycle) override
    {
        ++count;
        flits += pkt->sizeFlits;
        last = std::move(pkt);
    }

    unsigned count = 0;
    unsigned flits = 0;
    PacketPtr last;
};

TEST_P(NetworkSoak, ConservationUnderRandomTraffic)
{
    const auto &cfg = GetParam();
    MeshNetworkParams p;
    p.routing = cfg.routing;
    p.flitBytes = cfg.flitBytes;
    p.vcsPerClass = cfg.vcsPerClass;
    p.mcInjPorts = cfg.mcInjPorts;
    p.mcEjPorts = cfg.mcEjPorts;
    p.seed = 31337;
    // Full hardening during the soak: audit every invariant on a tight
    // stride and keep the deadlock watchdog well inside the drain
    // deadline so a hang fails with a diagnosis, not a timeout.
    p.validate = true;
    p.validateInterval = 16;
    p.watchdogWindow = 10000;
    if (cfg.checkerboard) {
        p.topo.placement = McPlacement::CHECKERBOARD;
        p.topo.checkerboardRouters = true;
    }
    auto net = makeMeshNetwork(p, cfg.sliced);
    const Topology &topo = net->topology();

    std::vector<CountingSink> sinks(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net->setSink(n, &sinks[n]);

    Rng rng(1234);
    Cycle t = 0;
    unsigned sent_req = 0;
    unsigned sent_rep = 0;
    unsigned flits_req = 0;
    unsigned flits_rep = 0;
    const unsigned target = 400;
    while (sent_req + sent_rep < target && t < 50000) {
        // Requests: random core -> random MC.
        const NodeId core = rng.pick(topo.computeNodes());
        if (sent_req + sent_rep < target && net->canInject(core, 0)) {
            auto pkt = makePacket();
            pkt->src = core;
            pkt->dst = rng.pick(topo.mcNodes());
            pkt->op = rng.nextBool(0.3) ? MemOp::WRITE_REQUEST
                                        : MemOp::READ_REQUEST;
            pkt->protoClass = 0;
            pkt->sizeFlits = net->packetFlits(pkt->op);
            pkt->sizeBytes = memOpBytes(pkt->op);
            flits_req += pkt->sizeFlits;
            net->inject(std::move(pkt), t);
            ++sent_req;
        }
        // Replies: random MC -> random core.
        const NodeId mc = rng.pick(topo.mcNodes());
        if (sent_req + sent_rep < target && net->canInject(mc, 1)) {
            auto pkt = makePacket();
            pkt->src = mc;
            pkt->dst = rng.pick(topo.computeNodes());
            pkt->op = MemOp::READ_REPLY;
            pkt->protoClass = 1;
            pkt->sizeFlits = net->packetFlits(pkt->op);
            pkt->sizeBytes = memOpBytes(pkt->op);
            flits_rep += pkt->sizeFlits;
            net->inject(std::move(pkt), t);
            ++sent_rep;
        }
        net->cycle(t++);
    }
    ASSERT_EQ(sent_req + sent_rep, target) << "injection starved";

    // Drain.
    const Cycle deadline = t + 20000;
    while (!net->drained() && t < deadline)
        net->cycle(t++);
    ASSERT_TRUE(net->drained())
        << "network failed to drain; diagnostic snapshot:\n"
        << net->diagnosticReport(t);

    unsigned mc_packets = 0;
    unsigned core_packets = 0;
    unsigned got_flits = 0;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        got_flits += sinks[n].flits;
        if (topo.isMc(n)) {
            mc_packets += sinks[n].count;
        } else {
            core_packets += sinks[n].count;
            if (sinks[n].last) {
                EXPECT_EQ(sinks[n].last->dst, n);
            }
        }
    }
    EXPECT_EQ(mc_packets, sent_req);
    EXPECT_EQ(core_packets, sent_rep);
    EXPECT_EQ(got_flits, flits_req + flits_rep);
    EXPECT_EQ(net->stats().packetsEjected, target);
    EXPECT_EQ(net->stats().flitsInjected, net->stats().flitsEjected);
}

INSTANTIATE_TEST_SUITE_P(
    Organizations, NetworkSoak,
    ::testing::Values(
        SoakConfig{"baseline", "xy", false, 16, 1, 1, 1, false},
        SoakConfig{"yx", "yx", false, 16, 1, 1, 1, false},
        SoakConfig{"wide", "xy", false, 32, 1, 1, 1, false},
        SoakConfig{"dor4vc", "xy", false, 16, 2, 1, 1, false},
        SoakConfig{"cpcr", "cr", true, 16, 1, 1, 1, false},
        SoakConfig{"cpcr2p", "cr", true, 16, 1, 2, 1, false},
        SoakConfig{"cpcr2ej", "cr", true, 16, 1, 1, 2, false},
        SoakConfig{"double", "cr", true, 16, 1, 1, 1, true},
        SoakConfig{"double2p", "cr", true, 16, 1, 2, 1, true},
        SoakConfig{"o1turn", "o1turn", false, 16, 1, 1, 1, false},
        SoakConfig{"romm", "romm", false, 16, 1, 1, 1, false},
        SoakConfig{"valiant", "valiant", false, 16, 1, 1, 1, false}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace tenoc
