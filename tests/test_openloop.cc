/**
 * @file
 * Tests for the open-loop latency/throughput harness (Fig. 21 infra).
 */

#include <gtest/gtest.h>

#include "noc/openloop.hh"
#include "noc/traffic.hh"
#include "telemetry/telemetry.hh"

namespace tenoc
{
namespace
{

OpenLoopParams
quickParams(double rate)
{
    OpenLoopParams p;
    p.injectionRate = rate;
    p.warmupCycles = 500;
    p.measureCycles = 2000;
    p.drainCycles = 8000;
    p.seed = 321;
    return p;
}

TEST(DestinationChooser, UniformCoversAllMcs)
{
    std::vector<NodeId> mcs{10, 11, 12, 13};
    DestinationChooser dc(mcs, 0.0);
    Rng rng(1);
    std::map<NodeId, int> counts;
    for (int i = 0; i < 4000; ++i)
        ++counts[dc.pick(rng)];
    for (NodeId mc : mcs)
        EXPECT_NEAR(counts[mc], 1000, 150);
}

TEST(DestinationChooser, HotspotFractionRespected)
{
    std::vector<NodeId> mcs{10, 11, 12, 13};
    DestinationChooser dc(mcs, 0.4);
    Rng rng(2);
    int hot = 0;
    for (int i = 0; i < 10000; ++i)
        hot += (dc.pick(rng) == 10);
    EXPECT_NEAR(hot / 10000.0, 0.4, 0.03);
}

TEST(DestinationChooser, ExclusionDrawIsUnbiased)
{
    // Drawing a destination while excluding the source must condition
    // the uniform distribution, not bias it (a modulo-skip would
    // overweight the excluded slot's successor).  Chi-squared test
    // over the three remaining MCs.
    std::vector<NodeId> mcs{10, 11, 12, 13};
    DestinationChooser dc(mcs, 0.0);
    Rng rng(5);
    const int n = 9000;
    std::map<NodeId, int> counts;
    for (int i = 0; i < n; ++i) {
        const NodeId d = dc.pick(rng, 11);
        ASSERT_NE(d, 11u);
        ++counts[d];
    }
    const double expect = n / 3.0;
    double chi2 = 0.0;
    for (NodeId mc : {10u, 12u, 13u}) {
        const double dev = counts[mc] - expect;
        chi2 += dev * dev / expect;
    }
    // 99.9th percentile of chi-squared with 2 degrees of freedom.
    EXPECT_LT(chi2, 13.82);
}

TEST(DestinationChooser, ExclusionOfNonMemberChangesNothing)
{
    std::vector<NodeId> mcs{10, 11, 12, 13};
    DestinationChooser dc(mcs, 0.0);
    Rng a(6), b(6);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(dc.pick(a), dc.pick(b, 99));
}

TEST(OpenLoop, PerSourceStreamsAreDeterministic)
{
    auto r1 = runOpenLoop(quickParams(0.03));
    auto r2 = runOpenLoop(quickParams(0.03));
    EXPECT_DOUBLE_EQ(r1.avgLatency, r2.avgLatency);
    EXPECT_DOUBLE_EQ(r1.acceptedLoad, r2.acceptedLoad);
}

TEST(OpenLoop, TelemetryWarmupLandsInDedicatedIntervalRow)
{
    OpenLoopParams p = quickParams(0.02);
    telemetry::TelemetryConfig cfg;
    cfg.intervalCsvPath = "-"; // any non-empty value enables sampling
    cfg.intervalCycles = 1000;
    telemetry::TelemetryHub hub(cfg);
    p.telemetry = &hub;
    runOpenLoop(p);

    auto *s = hub.sampler();
    ASSERT_NE(s, nullptr);
    ASSERT_GE(s->numRows(), 2u);
    // Row 0 is exactly the warmup; measurement windows start at its
    // boundary, so warmup-injected traffic never leaks into them.
    EXPECT_EQ(s->rowStart(0), 0u);
    EXPECT_EQ(s->rowEnd(0), p.warmupCycles);
    EXPECT_EQ(s->rowStart(1), p.warmupCycles);
    EXPECT_EQ(s->rowEnd(1), p.warmupCycles + cfg.intervalCycles);
}

TEST(OpenLoop, LowLoadLatencyNearZeroLoad)
{
    auto r = runOpenLoop(quickParams(0.005));
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.avgLatency, 10.0);
    EXPECT_LT(r.avgLatency, 60.0);
    EXPECT_GT(r.avgReplyLatency, r.avgRequestLatency * 0.5);
}

TEST(OpenLoop, AcceptedTracksOfferedBelowSaturation)
{
    auto r = runOpenLoop(quickParams(0.02));
    EXPECT_FALSE(r.saturated);
    // Accepted flits/node include 4-flit replies, so accepted exceeds
    // the offered request load.
    EXPECT_GT(r.acceptedLoad, r.offeredLoad);
}

TEST(OpenLoop, TailLatencyAtLeastMean)
{
    auto r = runOpenLoop(quickParams(0.04));
    EXPECT_GE(r.p95Latency, r.avgLatency * 0.9);
    EXPECT_GT(r.p95Latency, 0.0);
}

TEST(OpenLoop, SaturatesAtHighLoad)
{
    // Far beyond the many-to-few terminal limit (~0.071 for 8 MCs
    // with one injection port each).
    auto r = runOpenLoop(quickParams(0.3));
    EXPECT_TRUE(r.saturated);
}

TEST(OpenLoop, SweepStopsAtSaturation)
{
    OpenLoopParams p = quickParams(0.0);
    auto results = sweepOpenLoop(p, 0.02, 0.04, 0.30);
    ASSERT_GE(results.size(), 2u);
    EXPECT_TRUE(results.back().saturated);
    for (std::size_t i = 0; i + 1 < results.size(); ++i)
        EXPECT_FALSE(results[i].saturated);
    // Latency grows with offered load.
    EXPECT_LT(results.front().avgLatency, results.back().avgLatency);
}

TEST(OpenLoop, MultiPortMcRaisesSaturationThroughput)
{
    // Compare on the checkerboard network (as Fig. 21 does): with
    // top-bottom placement the row-0 links, not the terminal ports,
    // are the binding constraint and extra ports cannot help.
    OpenLoopParams base = quickParams(0.085);
    base.net.topo.placement = McPlacement::CHECKERBOARD;
    base.net.topo.checkerboardRouters = true;
    base.net.routing = "cr";
    auto r1 = runOpenLoop(base);
    OpenLoopParams twop = base;
    twop.net.mcInjPorts = 2;
    auto r2 = runOpenLoop(twop);
    // 0.085 packets/node/cycle demands ~1.2 reply flits/cycle per
    // MC: beyond one injection port, manageable with two (Fig. 21).
    EXPECT_TRUE(r1.saturated);
    EXPECT_FALSE(r2.saturated);
}

TEST(OpenLoop, HotspotSaturatesEarlier)
{
    OpenLoopParams uni = quickParams(0.06);
    OpenLoopParams hot = quickParams(0.06);
    hot.hotspotFraction = 0.3;
    auto ru = runOpenLoop(uni);
    auto rh = runOpenLoop(hot);
    EXPECT_FALSE(ru.saturated);
    EXPECT_TRUE(rh.saturated);
}

} // namespace
} // namespace tenoc
