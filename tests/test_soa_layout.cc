/**
 * @file
 * Structure-of-arrays layout suite (noc/slab.hh and its consumers).
 *
 * The VcSlabs arena is pure storage: every router/VC state machine
 * reads and writes through it, so a layout bug shows up as a stats
 * divergence somewhere in the scheduler/fault matrix.  Three
 * layers of coverage:
 *   1. arena mechanics — configure() growth and shrink-with-reuse,
 *      release of stale packet references, ring wraparound, and the
 *      out-of-range index assertions armed by TENOC_VALIDATE=1;
 *   2. view independence — InputPort views at different bases of one
 *      arena must not alias;
 *   3. sealed-stats equality — the identical seeded workload run
 *      across the full idleSkip x validate toggle square,
 *      crossed with the semantic axes (fault injection, single vs
 *      sliced double network), each cell compared field-for-field
 *      against its base run.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "noc/buffer.hh"
#include "noc/mesh_network.hh"
#include "noc/slab.hh"

namespace tenoc
{
namespace
{

Flit
makeFlit(unsigned vc, bool head = true, bool tail = true)
{
    auto pkt = makePacket();
    pkt->sizeFlits = 1;
    Flit f;
    f.pkt = std::move(pkt);
    f.head = head;
    f.tail = tail;
    f.vc = vc;
    return f;
}

// --------------------------------------------------------------------
// 1. Arena mechanics
// --------------------------------------------------------------------

TEST(VcSlabs, ConfigureSizesAllArrays)
{
    VcSlabs slabs;
    slabs.configure(6, 10, 4);
    EXPECT_EQ(slabs.numInputVcs(), 6u);
    EXPECT_EQ(slabs.numOutputVcs(), 10u);
    EXPECT_EQ(slabs.depth(), 4u);
    EXPECT_EQ(slabs.flits.size(), 24u);
    EXPECT_EQ(slabs.inState.size(), 6u);
    EXPECT_EQ(slabs.inBaseVc.size(), 6u);
    EXPECT_EQ(slabs.outCredits.size(), 10u);
    for (std::size_t i = 0; i < slabs.numInputVcs(); ++i) {
        EXPECT_EQ(slabs.inState[i], VcState::IDLE);
        EXPECT_EQ(slabs.ringCount[i], 0u);
    }
}

TEST(VcSlabs, RingWrapsAroundThroughSteadyState)
{
    VcSlabs slabs;
    slabs.configure(2, 0, 3);
    // Push/pop more flits than the depth so head wraps repeatedly.
    std::uint32_t next_seq = 1;
    for (unsigned round = 0; round < 7; ++round) {
        auto f = makeFlit(1);
        f.seq = next_seq++;
        slabs.pushFlit(1, std::move(f));
        if (round >= 1) {
            const Flit popped = slabs.popFlit(1);
            EXPECT_EQ(popped.seq, next_seq - 2);
        }
    }
    EXPECT_EQ(slabs.ringCount[1], 1u);
    EXPECT_EQ(slabs.frontFlit(1).seq, next_seq - 1);
    // Ring 0 was never touched.
    EXPECT_EQ(slabs.ringCount[0], 0u);
}

TEST(VcSlabs, ReconfigureGrowsAndShrinksWithStateReset)
{
    VcSlabs slabs;
    slabs.configure(4, 4, 2);
    slabs.inState[3] = VcState::ACTIVE;
    slabs.outOwned[2] = 1;
    slabs.outCredits[1] = 7;
    slabs.pushFlit(0, makeFlit(0));

    // Grow: more VCs, deeper rings.
    slabs.configure(16, 8, 5);
    EXPECT_EQ(slabs.numInputVcs(), 16u);
    EXPECT_EQ(slabs.depth(), 5u);
    EXPECT_EQ(slabs.flits.size(), 80u);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(slabs.inState[i], VcState::IDLE);
        EXPECT_EQ(slabs.ringCount[i], 0u);
    }
    for (std::size_t o = 0; o < 8; ++o) {
        EXPECT_EQ(slabs.outOwned[o], 0u);
        EXPECT_EQ(slabs.outCredits[o], 0u);
    }

    // Shrink back below the original size: capacity is reused, state
    // still fully reset.
    slabs.configure(2, 2, 1);
    EXPECT_EQ(slabs.numInputVcs(), 2u);
    EXPECT_EQ(slabs.flits.size(), 2u);
    EXPECT_EQ(slabs.inState[0], VcState::IDLE);
    EXPECT_EQ(slabs.ringCount[1], 0u);
}

TEST(VcSlabs, ReconfigureReleasesStalePacketReferences)
{
    VcSlabs slabs;
    slabs.configure(1, 0, 2);
    auto pkt = makePacket();
    pkt->sizeFlits = 1;
    Flit f;
    f.pkt = pkt; // second reference held by the ring slot
    f.head = f.tail = true;
    slabs.pushFlit(0, std::move(f));
    ASSERT_EQ(pkt.use_count(), 2u);
    // A reused arena must not pin packets from the previous
    // configuration alive.
    slabs.configure(1, 0, 2);
    EXPECT_EQ(pkt.use_count(), 1u);
}

TEST(VcSlabsDeathTest, ValidateArmsOutOfRangeChecks)
{
    VcSlabs slabs;
    slabs.configure(2, 2, 2);
    slabs.setValidate(true);
    EXPECT_DEATH(slabs.pushFlit(5, makeFlit(0)), "out of range");
    EXPECT_DEATH(slabs.popFlit(9), "out of range");
}

TEST(VcSlabsDeathTest, OverflowPanicsEvenWithoutValidate)
{
    VcSlabs slabs;
    slabs.configure(1, 0, 1);
    slabs.pushFlit(0, makeFlit(0));
    // The credit protocol assert stays on in every build: overflow is
    // memory corruption in ring storage.
    EXPECT_DEATH(slabs.pushFlit(0, makeFlit(0)), "overflow");
}

// --------------------------------------------------------------------
// 2. View independence
// --------------------------------------------------------------------

TEST(VcSlabs, PortViewsAtDifferentBasesDoNotAlias)
{
    VcSlabs slabs;
    slabs.configure(6, 0, 3);
    InputPort a(slabs, 0, 2, 3); // VCs [0, 2)
    InputPort b(slabs, 2, 4, 3); // VCs [2, 6)

    auto fa = makeFlit(1);
    fa.seq = 11;
    a.push(std::move(fa), 5);
    auto fb = makeFlit(1);
    fb.seq = 22;
    b.push(std::move(fb), 6);
    a.setState(1, VcState::ACTIVE);
    b.setState(1, VcState::VC_ALLOC);
    b.setBaseVc(1, 3);

    EXPECT_EQ(a.front(1).seq, 11u);
    EXPECT_EQ(b.front(1).seq, 22u);
    EXPECT_EQ(a.state(1), VcState::ACTIVE);
    EXPECT_EQ(b.state(1), VcState::VC_ALLOC);
    EXPECT_EQ(b.baseVc(1), 3u);
    EXPECT_EQ(a.totalOccupancy(), 1u);
    EXPECT_EQ(b.totalOccupancy(), 1u);
    // The underlying slots are the global indices 1 and 3.
    EXPECT_EQ(slabs.ringCount[1], 1u);
    EXPECT_EQ(slabs.ringCount[3], 1u);
    EXPECT_EQ(slabs.ringCount[0], 0u);
}

// --------------------------------------------------------------------
// 3. Sealed-stats equality across the toggle cube
// --------------------------------------------------------------------

/** Accepts everything, keeps nothing. */
struct DropSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

void
expectAccumulatorsEqual(const Accumulator &a, const Accumulator &b)
{
    EXPECT_EQ(a.count(), b.count()) << a.name();
    EXPECT_EQ(a.sum(), b.sum()) << a.name();
    EXPECT_EQ(a.min(), b.min()) << a.name();
    EXPECT_EQ(a.max(), b.max()) << a.name();
}

void
expectHistogramsEqual(const Histogram &a, const Histogram &b)
{
    EXPECT_EQ(a.count(), b.count()) << a.name();
    EXPECT_EQ(a.mean(), b.mean()) << a.name();
    EXPECT_EQ(a.buckets(), b.buckets()) << a.name();
}

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
    EXPECT_EQ(a.nodeInjectedBytes, b.nodeInjectedBytes);
    EXPECT_EQ(a.nodeEjectedBytes, b.nodeEjectedBytes);
    expectAccumulatorsEqual(a.totalLatency, b.totalLatency);
    expectAccumulatorsEqual(a.netLatency, b.netLatency);
    expectHistogramsEqual(a.totalLatencyHist, b.totalLatencyHist);
    expectHistogramsEqual(a.queueLatencyHist, b.queueLatencyHist);
    expectHistogramsEqual(a.traversalLatencyHist,
                          b.traversalLatencyHist);
    expectHistogramsEqual(a.serializationLatencyHist,
                          b.serializationLatencyHist);
}

/** Drives `net` with seeded request/reply traffic, then drains. */
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
            if (rng.nextBool(0.04) && net.canInject(core, 0)) {
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
    while (!net.drained() && now < cycles + 100000)
        net.cycle(now++);
    EXPECT_TRUE(net.drained());
    return now;
}

/** The semantic axes: these change behavior, so each combination is
 *  its own equality base. */
struct SoaBase
{
    bool faults;
    bool sliced;
};

std::string
soaBaseName(const ::testing::TestParamInfo<SoaBase> &info)
{
    std::string name = info.param.faults ? "faults" : "clean";
    name += info.param.sliced ? "_double" : "_single";
    return name;
}

MeshNetworkParams
soaParams(const SoaBase &base, bool idle_skip, bool validate)
{
    MeshNetworkParams p;
    p.seed = 11;
    p.idleSkip = idle_skip;
    if (validate) {
        p.validate = true;
        p.validateInterval = 16;
    }
    if (base.faults) {
        p.faults.linkStallRate = 2e-4;
        p.faults.linkStallDuration = 8;
        p.faults.routerFreezeRate = 1e-4;
        p.faults.routerFreezeDuration = 12;
        p.faults.seed = 77;
    }
    return p;
}

class SoaToggleMatrix : public ::testing::TestWithParam<SoaBase>
{};

TEST_P(SoaToggleMatrix, SealedStatsIdenticalAcrossToggles)
{
    const SoaBase base = GetParam();
    // Reference cell: full-tick, unvalidated.
    const auto ref =
        makeMeshNetwork(soaParams(base, false, false), base.sliced);
    const Cycle ref_done = drive(*ref, 97, 1200);

    for (const bool idle_skip : {false, true}) {
        for (const bool validate : {false, true}) {
            if (!idle_skip && !validate)
                continue; // the reference itself
            const auto net = makeMeshNetwork(
                soaParams(base, idle_skip, validate), base.sliced);
            const Cycle done = drive(*net, 97, 1200);
            SCOPED_TRACE("idleSkip=" + std::to_string(idle_skip) +
                         " validate=" + std::to_string(validate));
            EXPECT_EQ(ref_done, done);
            expectStatsEqual(ref->stats(), net->stats());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SemanticAxes, SoaToggleMatrix,
    ::testing::Values(SoaBase{false, false}, SoaBase{false, true},
                      SoaBase{true, false}, SoaBase{true, true}),
    soaBaseName);

} // namespace
} // namespace tenoc
