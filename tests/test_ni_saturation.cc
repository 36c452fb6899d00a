/**
 * @file
 * Network-interface saturation equivalence suite.
 *
 * Drives every NI hard from both ends at once — injection offered
 * well above network capacity (class queues pinned at injQueueCap,
 * canInject refusing most cycles) and ejection throttled by a sink
 * that accepts only a fraction of reservation attempts (ejection
 * buffers pinned at ejBufferFlits, credits withheld upstream) — and
 * requires bit-identical final statistics between the full-tick and
 * idle-skip schedulers, single and channel-sliced (DoubleNetwork), with
 * and without link-stall fault injection, and on multi-port MC
 * routers.  The slab-backed NI rings spend the whole run at their
 * capacity bounds, so any ring-arithmetic or early-out-counter bug
 * diverges a counter here.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

/**
 * Accepts one reservation in `stride`, refusing the rest.  One sink
 * per node: each NI issues its reservation attempts in a
 * deterministic per-NI order, so a per-node counter throttles
 * identically whatever subset of NIs a scheduler visits.
 */
struct ThrottledSink : PacketSink
{
    explicit ThrottledSink(unsigned stride = 3) : stride_(stride) {}

    bool
    tryReserve(const Packet &) override
    {
        return calls_++ % stride_ == 0;
    }

    void deliver(PacketPtr, Cycle) override {}

    unsigned stride_;
    std::uint64_t calls_ = 0;
};

struct RunResult
{
    Cycle drainedAt = 0;
    NetStats stats;
};

/**
 * Saturating request/reply driver: offered load far above the
 * many-to-few capacity bound, every sink throttled 1-in-3.
 */
RunResult
saturate(const MeshNetworkParams &params, bool sliced,
         std::uint64_t seed, Cycle cycles)
{
    const auto net = makeMeshNetwork(params, sliced);
    const auto &topo = net->topology();
    std::vector<ThrottledSink> sinks(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net->setSink(n, &sinks[n]);

    Rng rng(seed);
    Cycle now = 0;
    std::uint64_t refused = 0;
    for (; now < cycles; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (!rng.nextBool(0.6))
                continue;
            if (!net->canInject(core, 0)) {
                ++refused; // saturation evidence, not an error
                continue;
            }
            auto pkt = makePacket();
            pkt->src = core;
            pkt->dst = rng.pick(topo.mcNodes());
            pkt->op = MemOp::READ_REQUEST;
            pkt->protoClass = 0;
            pkt->sizeFlits = net->packetFlits(MemOp::READ_REQUEST);
            pkt->sizeBytes = memOpBytes(MemOp::READ_REQUEST);
            net->inject(std::move(pkt), now);
        }
        for (NodeId mc : topo.mcNodes()) {
            if (!rng.nextBool(0.5) || !net->canInject(mc, 1))
                continue;
            auto pkt = makePacket();
            pkt->src = mc;
            pkt->dst = rng.pick(topo.computeNodes());
            pkt->op = MemOp::READ_REPLY;
            pkt->protoClass = 1;
            pkt->sizeFlits = net->packetFlits(MemOp::READ_REPLY);
            pkt->sizeBytes = memOpBytes(MemOp::READ_REPLY);
            net->inject(std::move(pkt), now);
        }
        net->cycle(now);
    }
    // The workload must actually have saturated the injection queues.
    EXPECT_GT(refused, 0u);

    while (!net->drained() && now < cycles + 200000)
        net->cycle(now++);
    EXPECT_TRUE(net->drained());

    RunResult r;
    r.drainedAt = now;
    r.stats = net->stats();
    return r;
}

void
expectRunsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.drainedAt, b.drainedAt);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.packetsInjected, b.stats.packetsInjected);
    EXPECT_EQ(a.stats.packetsEjected, b.stats.packetsEjected);
    EXPECT_EQ(a.stats.flitsInjected, b.stats.flitsInjected);
    EXPECT_EQ(a.stats.flitsEjected, b.stats.flitsEjected);
    EXPECT_EQ(a.stats.nodeInjectedFlits, b.stats.nodeInjectedFlits);
    EXPECT_EQ(a.stats.nodeEjectedFlits, b.stats.nodeEjectedFlits);
    EXPECT_EQ(a.stats.totalLatency.count(),
              b.stats.totalLatency.count());
    EXPECT_EQ(a.stats.totalLatency.sum(), b.stats.totalLatency.sum());
    EXPECT_EQ(a.stats.netLatency.sum(), b.stats.netLatency.sum());
    EXPECT_EQ(a.stats.totalLatencyHist.buckets(),
              b.stats.totalLatencyHist.buckets());
    EXPECT_EQ(a.stats.queueLatencyHist.buckets(),
              b.stats.queueLatencyHist.buckets());
}

MeshNetworkParams
baseParams(std::uint64_t seed)
{
    MeshNetworkParams p;
    p.seed = seed;
    p.validate = true;
    p.validateInterval = 32;
    return p;
}

constexpr Cycle SAT_CYCLES = 1200;

/**
 * Saturates `p` under full-tick and idle-skip; expects equal runs.
 * Slicing is a topology axis, not a results-preserving toggle (a
 * DoubleNetwork is two half-width physical networks), so both runs
 * share it and only the scheduler differs.
 */
void
expectSchedulersAgree(MeshNetworkParams p, std::uint64_t seed,
                      bool sliced = false)
{
    p.idleSkip = false;
    const RunResult full = saturate(p, sliced, seed, SAT_CYCLES);
    p.idleSkip = true;
    const RunResult skip = saturate(p, sliced, seed, SAT_CYCLES);
    expectRunsEqual(full, skip);
}

/** (seed, sliced, faults) cross. */
class NiSaturationEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, bool, bool>>
{};

TEST_P(NiSaturationEquivalence, MatchesReferenceScheduler)
{
    const auto [seed, sliced, faults] = GetParam();
    MeshNetworkParams p = baseParams(seed);
    if (faults) {
        p.faults.linkStallRate = 1e-3;
        p.faults.linkStallDuration = 8;
        p.faults.seed = seed * 7 + 1;
    }
    expectSchedulersAgree(p, seed, sliced);
}

std::string
satCaseName(const ::testing::TestParamInfo<
            std::tuple<std::uint64_t, bool, bool>> &info)
{
    const auto [seed, sliced, faults] = info.param;
    // "skip_" (the toggled scheduler) and "_t1" (one cycle thread)
    // keep the established case ids stable.
    std::string s = sliced ? "skip_double" : "skip_single";
    s += "_t1";
    s += faults ? "_faults_" : "_clean_";
    s += std::to_string(seed);
    return s;
}

INSTANTIATE_TEST_SUITE_P(
    ToggleCross, NiSaturationEquivalence,
    ::testing::Combine(::testing::Values<std::uint64_t>(11),
                       ::testing::Bool(), ::testing::Bool()),
    satCaseName);

TEST(NiSaturation, ArrivalSleepInvariantUnderBackpressure)
{
    // Sleeping until arrival (idle-skip) vs ticking every router every
    // cycle (full-tick) under the saturating workload: ejection
    // backpressure keeps matured flits parked in channels for many
    // cycles, exercising the readInputs keep-bit path far harder than
    // free-flowing traffic.
    expectSchedulersAgree(baseParams(13), 13);
}

TEST(NiSaturation, McMultiPortRouters)
{
    // Multi-port MC routers give NIs uneven port counts; the slab's
    // per-NI base offsets must keep every ring in bounds at capacity.
    MeshNetworkParams p = baseParams(17);
    p.mcInjPorts = 2;
    p.mcEjPorts = 2;
    expectSchedulersAgree(p, 17);
}

} // namespace
} // namespace tenoc
