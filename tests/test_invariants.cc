/**
 * @file
 * Hardening-layer tests: the invariant checker stays clean on correct
 * executions, and mutation tests prove that each deliberately injected
 * inconsistency (leaked credit, corrupted in-flight counter, router
 * retired from the active set while it still has work, lost
 * arrival-wheel wake, pooled-packet double release) is detected and
 * reported precisely.  Also covers the config-hardening fatal paths
 * (0 VCs, off-mesh MCs, odd sliced flit width, routers wider than one
 * 64-bit word, ...) as exit-code tests, and the strict 0/1 parsing of
 * the TENOC_VALIDATE switch.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/log.hh"
#include "noc/invariants.hh"
#include "noc/mesh_network.hh"
#include "scoped_env.hh"

namespace tenoc
{
namespace
{

/** Accepts everything, keeps nothing. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

void
attachDropSinks(Network &net, DropSink &sink)
{
    for (NodeId n = 0; n < net.topology().numNodes(); ++n)
        net.setSink(n, &sink);
}

/** Injects seeded request/reply traffic for `cycles` cycles. */
void
driveTraffic(Network &net, Rng &rng, Cycle &now, Cycle cycles)
{
    const auto &topo = net.topology();
    const Cycle end = now + cycles;
    for (; now < end; ++now) {
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
            if (rng.nextBool(0.10) && net.canInject(mc, 1)) {
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
}

bool
hasViolation(const std::vector<Violation> &vs, Violation::Kind kind)
{
    for (const auto &v : vs)
        if (v.kind == kind)
            return true;
    return false;
}

std::string
describe(const std::vector<Violation> &vs)
{
    std::string out;
    for (const auto &v : vs) {
        out += "[";
        out += violationKindName(v.kind);
        out += "] " + v.message + "\n";
    }
    return out;
}

TEST(Invariants, CleanAuditUnderTraffic)
{
    MeshNetworkParams p;
    p.validate = true; // periodic check() live too
    p.validateInterval = 8;
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(99);
    Cycle now = 0;
    for (int burst = 0; burst < 8; ++burst) {
        driveTraffic(net, rng, now, 250);
        const auto vs = net.checker().audit(now);
        EXPECT_TRUE(vs.empty()) << describe(vs);
    }
    while (!net.drained() && now < 100000)
        net.cycle(now++);
    ASSERT_TRUE(net.drained());
    const auto vs = net.checker().audit(now);
    EXPECT_TRUE(vs.empty()) << describe(vs);
}

TEST(Invariants, CleanAuditDoubleNetwork)
{
    MeshNetworkParams p;
    p.validate = true;
    p.validateInterval = 8;
    DoubleNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);
    Rng rng(7);
    Cycle now = 0;
    driveTraffic(net, rng, now, 1500);
    while (!net.drained() && now < 100000)
        net.cycle(now++);
    ASSERT_TRUE(net.drained());
    for (MeshNetwork *slice : {&net.requestNet(), &net.replyNet()}) {
        const auto vs = slice->checker().audit(now);
        EXPECT_TRUE(vs.empty()) << describe(vs);
    }
}

TEST(Invariants, MutatedCreditIsCaught)
{
    MeshNetworkParams p; // validate off: audit by hand, no panic
    MeshNetwork net(p);
    ASSERT_TRUE(net.checker().audit(0).empty());

    // Leak one downstream credit on the first connected output.
    Router &r = net.router(net.topology().nodeAt(1, 1));
    unsigned out = NUM_DIRS;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (r.outputConnected(d)) {
            out = d;
            break;
        }
    }
    ASSERT_LT(out, NUM_DIRS);
    ASSERT_TRUE(r.dropCredit(out, 0));

    const auto vs = net.checker().audit(0);
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::CREDIT_CONSERVATION))
        << describe(vs);
    // The report pinpoints the faulted link, direction and VC.
    bool precise = false;
    for (const auto &v : vs) {
        if (v.kind == Violation::Kind::CREDIT_CONSERVATION &&
            v.message.find("vc 0") != std::string::npos) {
            precise = true;
        }
    }
    EXPECT_TRUE(precise) << describe(vs);
}

TEST(Invariants, DesyncedStageWordIsCaught)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    ASSERT_TRUE(net.checker().audit(0).empty());

    // Mark an empty IDLE VC as an SA candidate, as a missed
    // InputPort transition would.
    Router &r = net.router(net.topology().nodeAt(1, 1));
    r.flipReadyBit(SA_READY, DIR_EAST, 1);
    const auto vs = net.checker().audit(0);
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::STAGE_WORDS))
        << describe(vs);
    bool precise = false;
    for (const auto &v : vs) {
        if (v.kind == Violation::Kind::STAGE_WORDS &&
            v.message.find("input 1 vc 1: SA-candidate") !=
                std::string::npos) {
            precise = true;
        }
    }
    EXPECT_TRUE(precise) << describe(vs);

    r.flipReadyBit(SA_READY, DIR_EAST, 1);
    EXPECT_TRUE(net.checker().audit(0).empty());
}

TEST(Invariants, CorruptedInflightCounterIsCaught)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    net.debugAdjustInflight(+1);
    const auto vs = net.checker().audit(0);
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::PACKET_CONSERVATION))
        << describe(vs);
    net.debugAdjustInflight(-1);
    EXPECT_TRUE(net.checker().audit(0).empty());
}

TEST(Invariants, RetiredActiveRouterIsCaught)
{
    MeshNetworkParams p; // idleSkip defaults on -> activity checked
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);

    const auto &topo = net.topology();
    auto pkt = makePacket();
    pkt->src = topo.nodeAt(0, 2);
    pkt->dst = topo.nodeAt(5, 2);
    pkt->op = MemOp::READ_REQUEST;
    pkt->protoClass = 0;
    pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
    pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
    net.inject(std::move(pkt), 0);

    // Tick until some router holds buffered flits, then retire it from
    // the active set as a buggy idle-skip scheduler would.
    NodeId busy = INVALID_NODE;
    Cycle now = 0;
    while (busy == INVALID_NODE && now < 100) {
        net.cycle(now++);
        for (NodeId n = 0; n < topo.numNodes() && busy == INVALID_NODE;
             ++n) {
            unsigned flits = 0;
            net.router(n).forEachBufferedFlit(
                [&](unsigned, unsigned, const Flit &) { ++flits; });
            if (flits > 0)
                busy = n;
        }
    }
    ASSERT_NE(busy, INVALID_NODE) << "packet never entered a router";

    ASSERT_TRUE(net.checker().audit(now).empty());
    net.debugRetireRouter(busy);
    const auto vs = net.checker().audit(now);
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::ACTIVITY))
        << describe(vs);
}

TEST(Invariants, LostArrivalWakeIsCaught)
{
    // A permanent stall on the link (0,2) -> (1,2) parks the packet's
    // flit in the channel once it matures; (1,2) keeps the port's
    // pending bit and stays active.  Dropping the bit models a lost
    // wheel entry on an active router: nothing would ever drain the
    // flit, yet no router is retired.
    MeshNetworkParams p;
    const Topology probe(p.topo);
    const NodeId src = probe.nodeAt(0, 2);
    const NodeId victim = probe.nodeAt(1, 2);
    FaultEvent stall;
    stall.kind = FaultKind::LINK_STALL;
    stall.node = src;
    stall.port = DIR_EAST;
    p.faults.schedule.push_back(stall);
    MeshNetwork net(p);
    DropSink sink;
    attachDropSinks(net, sink);

    auto pkt = makePacket();
    pkt->src = src;
    pkt->dst = probe.nodeAt(5, 2);
    pkt->op = MemOp::READ_REQUEST;
    pkt->protoClass = 0;
    pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
    pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
    net.inject(std::move(pkt), 0);

    Cycle now = 0;
    while (!net.router(victim).couldWork() && now < 100)
        net.cycle(now++);
    ASSERT_TRUE(net.router(victim).couldWork())
        << "flit never matured on the stalled link";
    ASSERT_TRUE(net.router(victim).empty());
    ASSERT_TRUE(net.checker().audit(now).empty());

    net.debugDropPending(victim);
    const auto vs = net.checker().audit(now);
    ASSERT_FALSE(vs.empty());
    EXPECT_TRUE(hasViolation(vs, Violation::Kind::ACTIVITY))
        << describe(vs);
}

TEST(Invariants, ValidateForcedByEnvParsesValues)
{
    const char *saved = ::getenv("TENOC_VALIDATE");
    const std::string restore = saved ? saved : "";
    ::setenv("TENOC_VALIDATE", "1", 1);
    EXPECT_TRUE(validateForcedByEnv());
    ::setenv("TENOC_VALIDATE", "0", 1);
    EXPECT_FALSE(validateForcedByEnv());
    ::unsetenv("TENOC_VALIDATE");
    EXPECT_FALSE(validateForcedByEnv());
    if (saved)
        ::setenv("TENOC_VALIDATE", restore.c_str(), 1);
}

TEST(EnvSwitch, ValidateAcceptsOnlyZeroOrOne)
{
    MeshNetworkParams p;
    p.validate = false;
    {
        ScopedEnv env("TENOC_VALIDATE", "1");
        EXPECT_TRUE(MeshNetwork(p).params().validate);
    }
    for (const char *bad : {"off", "false", "no", "2"}) {
        ScopedEnv env("TENOC_VALIDATE", bad);
        const auto warned = warnCount();
        EXPECT_FALSE(MeshNetwork(p).params().validate) << bad;
        EXPECT_GT(warnCount(), warned) << bad;
    }
}

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, CheckPanicsListingViolations)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    Router &r = net.router(net.topology().nodeAt(1, 1));
    ASSERT_TRUE(r.dropCredit(DIR_EAST, 0));
    EXPECT_DEATH(net.checker().check(0), "credit_conservation");
}

TEST(InvariantsDeathTest, PeriodicCheckFiresUnderValidate)
{
    MeshNetworkParams p;
    p.validate = true;
    p.validateInterval = 1;
    MeshNetwork net(p);
    net.debugAdjustInflight(+1);
    EXPECT_DEATH(net.cycle(0), "packet_conservation");
}

TEST(InvariantsDeathTest, PoolDoubleReleaseIsHardError)
{
    auto &pool = packetPool();
    pool.setValidate(true);
    Packet *raw = pool.allocate();
    pool.release(raw);
    EXPECT_DEATH(pool.release(raw), "double-release");
    pool.setValidate(false);
}

using ConfigHardeningDeathTest = ::testing::Test;

TEST(ConfigHardeningDeathTest, ZeroVcsRejected)
{
    MeshNetworkParams p;
    p.vcsPerClass = 0;
    EXPECT_EXIT(validateMeshNetworkParams(p),
                ::testing::ExitedWithCode(1), "vcsPerClass");
}

TEST(ConfigHardeningDeathTest, RouterWiderThanOneWordRejected)
{
    // Each output's free VCs and each input's SA candidates are one
    // 64-bit word, as is each output's set of requesting inputs.
    MeshNetworkParams wide_vcs;
    wide_vcs.vcsPerClass = 33; // 2 protocol classes -> 66 VCs per port
    EXPECT_EXIT(MeshNetwork{wide_vcs}, ::testing::ExitedWithCode(1),
                "66 VCs per port");
    MeshNetworkParams many_ports;
    many_ports.mcInjPorts = 61; // 4 + 61 = 65 inputs at MC routers
    EXPECT_EXIT(MeshNetwork{many_ports}, ::testing::ExitedWithCode(1),
                "65 inputs");
}

TEST(ConfigHardeningDeathTest, ZeroVcDepthRejected)
{
    MeshNetworkParams p;
    p.vcDepth = 0;
    EXPECT_EXIT(validateMeshNetworkParams(p),
                ::testing::ExitedWithCode(1), "vcDepth");
}

TEST(ConfigHardeningDeathTest, ZeroValidateIntervalRejected)
{
    MeshNetworkParams p;
    p.validate = true;
    p.validateInterval = 0;
    EXPECT_EXIT(validateMeshNetworkParams(p),
                ::testing::ExitedWithCode(1), "validateInterval");
}

TEST(ConfigHardeningDeathTest, OffMeshMcRejected)
{
    TopologyParams tp;
    tp.placement = McPlacement::CUSTOM;
    tp.numMcs = 1;
    tp.customMcs = {{9, 9}}; // 6x6 mesh has x,y in [0,5]
    EXPECT_EXIT({ Topology topo(tp); }, ::testing::ExitedWithCode(1),
                "off the");
}

TEST(ConfigHardeningDeathTest, TooManyMcsRejected)
{
    TopologyParams tp;
    tp.numMcs = 36; // every node an MC leaves no compute nodes
    EXPECT_EXIT({ Topology topo(tp); }, ::testing::ExitedWithCode(1),
                "");
}

TEST(ConfigHardeningDeathTest, DegenerateMeshRejected)
{
    TopologyParams tp;
    tp.rows = 1;
    EXPECT_EXIT({ Topology topo(tp); }, ::testing::ExitedWithCode(1),
                "");
}

TEST(ConfigHardeningDeathTest, OddSlicedFlitBytesRejected)
{
    MeshNetworkParams p;
    p.flitBytes = 15; // cannot halve evenly
    EXPECT_EXIT(makeMeshNetwork(p, true),
                ::testing::ExitedWithCode(1), "even value");
}

} // namespace
} // namespace tenoc
