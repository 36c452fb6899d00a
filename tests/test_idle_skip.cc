/**
 * @file
 * Equivalence regression for the idle-skip scheduler: with
 * MeshNetworkParams::idleSkip on and off, every statistic of a run —
 * scalar counters, per-node vectors, latency accumulators, and the
 * full per-packet latency histograms — must be identical.  Covered
 * across seeds, routing algorithms, and the single/double network, in
 * open loop and closed loop.  Any divergence means the activity
 * tracking dropped a component that still had work.
 *
 * Both schedulers deliver channel items through the arrival wheel, but
 * only idle-skip lets a router sleep until its next arrival; the
 * ArrivalSleepEquivalence cases stress that on long channels, under
 * link-stall faults and with the age-priority allocator.
 */

#include <gtest/gtest.h>

#include "accel/chip.hh"
#include "accel/chip_config.hh"
#include "accel/experiments.hh"
#include "common/rng.hh"
#include "noc/mesh_network.hh"
#include "noc/openloop.hh"

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

/**
 * Drives `net` with seeded many-to-few requests (class 0) and
 * few-to-many replies (class 1) for `cycles`, then lets it drain.
 * @return the cycle at which drained() first became true.
 */
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

MeshNetworkParams
netParams(const std::string &routing, std::uint64_t seed)
{
    MeshNetworkParams p;
    p.routing = routing;
    p.seed = seed;
    // Audit invariants in both scheduler modes: the checker must stay
    // clean and must not perturb a single statistic.
    p.validate = true;
    p.validateInterval = 16;
    if (routing == "cr") {
        p.topo.placement = McPlacement::CHECKERBOARD;
        p.topo.checkerboardRouters = true;
        p.vcsPerClass = 2; // CR needs a lane per routing class
    }
    return p;
}

/** Drives `p` under full-tick and idle-skip; expects equal results. */
void
expectSchedulersAgree(MeshNetworkParams p, bool sliced,
                      std::uint64_t seed)
{
    p.idleSkip = false;
    const auto full = makeMeshNetwork(p, sliced);
    p.idleSkip = true;
    const auto skip = makeMeshNetwork(p, sliced);
    const Cycle done_full = drive(*full, seed * 31 + 7, 3000);
    const Cycle done_skip = drive(*skip, seed * 31 + 7, 3000);
    EXPECT_EQ(done_full, done_skip);
    expectStatsEqual(full->stats(), skip->stats());
}

class IdleSkipEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::string, bool>>
{};

TEST_P(IdleSkipEquivalence, MatchesFullTick)
{
    const auto [seed, routing, sliced] = GetParam();
    expectSchedulersAgree(netParams(routing, seed), sliced, seed);
}

std::string
idleSkipCaseName(
    const ::testing::TestParamInfo<
        std::tuple<std::uint64_t, std::string, bool>> &info)
{
    return std::get<1>(info.param) +
           (std::get<2>(info.param) ? "_double_" : "_single_") +
           std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsRoutingsSlicing, IdleSkipEquivalence,
    ::testing::Combine(
        ::testing::Values<std::uint64_t>(1, 42, 2024),
        ::testing::Values<std::string>("xy", "yx", "cr"),
        ::testing::Bool()),
    idleSkipCaseName);

TEST(ArrivalSleepEquivalence, LongChannelLatency)
{
    // Multi-cycle links park several entries per channel in the wheel.
    MeshNetworkParams p = netParams("xy", 4);
    p.channelLatency = 5;
    expectSchedulersAgree(p, false, 4);
}

TEST(ArrivalSleepEquivalence, LinkStallFaults)
{
    // Transient link stalls consume wheel wakes while the channel
    // delivers nothing; the stall-clear re-mark and the readInputs
    // keep-bit must together never strand a flit.
    MeshNetworkParams p = netParams("xy", 6);
    p.faults.linkStallRate = 2e-3;
    p.faults.linkStallDuration = 12;
    p.faults.seed = 99;
    expectSchedulersAgree(p, false, 6);
}

TEST(ArrivalSleepEquivalence, AgePriorityAllocator)
{
    MeshNetworkParams p = netParams("xy", 5);
    p.agePriority = true;
    expectSchedulersAgree(p, false, 5);
}

TEST(IdleSkipEquivalence, OpenLoopResultsIdentical)
{
    for (double rate : {0.02, 0.08}) {
        OpenLoopParams p;
        p.injectionRate = rate;
        p.seed = 5;
        p.warmupCycles = 500;
        p.measureCycles = 2000;
        p.net.validate = true;
        p.net.idleSkip = false;
        const auto full = runOpenLoop(p);
        p.net.idleSkip = true;
        const auto skip = runOpenLoop(p);
        EXPECT_EQ(full.offeredLoad, skip.offeredLoad) << rate;
        EXPECT_EQ(full.acceptedLoad, skip.acceptedLoad) << rate;
        EXPECT_EQ(full.avgLatency, skip.avgLatency) << rate;
        EXPECT_EQ(full.avgRequestLatency, skip.avgRequestLatency);
        EXPECT_EQ(full.avgReplyLatency, skip.avgReplyLatency);
        EXPECT_EQ(full.p95Latency, skip.p95Latency) << rate;
        EXPECT_EQ(full.saturated, skip.saturated) << rate;
    }
}

TEST(IdleSkipEquivalence, ClosedLoopChipIdentical)
{
    // Whole-chip runs (cores + caches + DRAM in the loop) on both a
    // single and a sliced network config.
    for (auto id : {ConfigId::BASELINE_TB_DOR, ConfigId::CP_CR_DOUBLE}) {
        const auto prof = scaleWorkload(findWorkload("MM"), 0.01);
        ChipParams full_p = makeConfig(id);
        full_p.mesh.idleSkip = false;
        ChipParams skip_p = makeConfig(id);
        skip_p.mesh.idleSkip = true;
        const auto full = runWorkload(full_p, prof);
        const auto skip = runWorkload(skip_p, prof);
        EXPECT_EQ(full.ipc, skip.ipc) << configName(id);
        EXPECT_EQ(full.scalarInsts, skip.scalarInsts);
        EXPECT_EQ(full.coreCycles, skip.coreCycles);
        EXPECT_EQ(full.icntCycles, skip.icntCycles) << configName(id);
        EXPECT_EQ(full.memCycles, skip.memCycles);
        EXPECT_EQ(full.avgNetLatency, skip.avgNetLatency);
        EXPECT_EQ(full.avgTotalLatency, skip.avgTotalLatency);
        EXPECT_EQ(full.packetsEjected, skip.packetsEjected);
        EXPECT_EQ(full.dramEfficiency, skip.dramEfficiency);
    }
}

TEST(IdleSkipEquivalence, DrainedIsExactUnderIdleSkip)
{
    // drained() is an O(1) in-flight counter; check it flips exactly
    // when the last packet leaves.
    MeshNetwork net(netParams("xy", 3));
    DropSink sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    EXPECT_TRUE(net.drained());
    auto pkt = makePacket();
    pkt->src = topo.nodeAt(0, 0);
    pkt->dst = topo.nodeAt(5, 5);
    pkt->op = MemOp::READ_REQUEST;
    pkt->protoClass = 0;
    pkt->sizeFlits = net.packetFlits(MemOp::READ_REQUEST);
    pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
    net.inject(std::move(pkt), 0);
    EXPECT_FALSE(net.drained());
    Cycle now = 0;
    while (!net.drained() && now < 1000)
        net.cycle(now++);
    EXPECT_TRUE(net.drained());
    EXPECT_EQ(net.stats().packetsEjected, 1u);
    // Once drained, further cycles are cheap no-ops and stay drained.
    for (Cycle t = 0; t < 10; ++t)
        net.cycle(now++);
    EXPECT_TRUE(net.drained());
}

} // namespace
} // namespace tenoc
