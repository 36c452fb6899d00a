/**
 * @file
 * Tests for the named experiment configurations (Table V).
 */

#include <gtest/gtest.h>

#include "accel/chip_config.hh"

namespace tenoc
{
namespace
{

const ConfigId kAll[] = {
    ConfigId::BASELINE_TB_DOR, ConfigId::TB_DOR_2X,
    ConfigId::TB_DOR_1CYC, ConfigId::PERFECT, ConfigId::CP_DOR_2VC,
    ConfigId::CP_DOR_4VC, ConfigId::CP_CR_4VC,
    ConfigId::CP_CR_SINGLE_16B_4VC, ConfigId::CP_CR_DOUBLE,
    ConfigId::CP_CR_DOUBLE_2INJ, ConfigId::CP_CR_DOUBLE_2EJ,
    ConfigId::CP_CR_DOUBLE_2INJ2EJ, ConfigId::THROUGHPUT_EFFECTIVE,
    ConfigId::CP_CR_2INJ_SINGLE,
};

TEST(ChipConfig, BaselineMatchesTables)
{
    const auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    EXPECT_EQ(p.mesh.topo.rows, 6u);
    EXPECT_EQ(p.mesh.topo.cols, 6u);
    EXPECT_EQ(p.mesh.topo.numMcs, 8u);
    EXPECT_EQ(p.mesh.flitBytes, 16u);           // Table III
    EXPECT_EQ(p.mesh.pipelineDepth, 4u);        // 4-stage routers
    EXPECT_EQ(p.mesh.vcDepth, 8u);              // 8 buffers per VC
    EXPECT_EQ(p.mesh.protoClasses * p.mesh.vcsPerClass, 2u); // 2 VCs
    EXPECT_EQ(p.mesh.routing, "xy");
    EXPECT_EQ(p.mesh.topo.placement, McPlacement::TOP_BOTTOM);
    EXPECT_EQ(p.core.warpSize, 32u);            // Table II
    EXPECT_EQ(p.core.maxWarps, 32u);
    EXPECT_EQ(p.core.mshrEntries, 64u);
    EXPECT_EQ(p.mc.dram.queueCapacity, 32u);
    EXPECT_DOUBLE_EQ(p.coreClockMhz, 1296.0);
    EXPECT_DOUBLE_EQ(p.icntClockMhz, 602.0);
    EXPECT_DOUBLE_EQ(p.memClockMhz, 1107.0);
}

TEST(ChipConfig, TwoXDoublesChannels)
{
    const auto p = makeConfig(ConfigId::TB_DOR_2X);
    EXPECT_EQ(p.mesh.flitBytes, 32u);
}

TEST(ChipConfig, OneCycleRouters)
{
    const auto p = makeConfig(ConfigId::TB_DOR_1CYC);
    EXPECT_EQ(p.mesh.pipelineDepth, 1u);
    EXPECT_EQ(p.mesh.halfPipelineDepth, 1u);
}

TEST(ChipConfig, CheckerboardConfigs)
{
    const auto cr = makeConfig(ConfigId::CP_CR_4VC);
    EXPECT_TRUE(cr.mesh.topo.checkerboardRouters);
    EXPECT_EQ(cr.mesh.routing, "cr");
    EXPECT_EQ(cr.mesh.topo.placement, McPlacement::CHECKERBOARD);

    const auto dor4 = makeConfig(ConfigId::CP_DOR_4VC);
    EXPECT_FALSE(dor4.mesh.topo.checkerboardRouters);
    EXPECT_EQ(dor4.mesh.vcsPerClass, 2u);
}

TEST(ChipConfig, ThroughputEffectiveCombinesEverything)
{
    const auto p = makeConfig(ConfigId::THROUGHPUT_EFFECTIVE);
    EXPECT_EQ(p.netKind, NetKind::DOUBLE);
    EXPECT_TRUE(p.mesh.topo.checkerboardRouters);
    EXPECT_EQ(p.mesh.routing, "cr");
    EXPECT_EQ(p.mesh.mcInjPorts, 2u);
    EXPECT_EQ(p.mesh.mcEjPorts, 1u); // ejection ports dropped (Sec. V-E)
}

TEST(ChipConfig, AllConfigsHaveNames)
{
    for (ConfigId id : kAll)
        EXPECT_STRNE(configName(id), "unknown");
}

TEST(ChipConfig, DramBandwidthFootnote3)
{
    // Footnote 3: bisection ratio 0.816 corresponds to N = 12
    // flits/interconnect cycle, i.e. full DRAM bandwidth is ~14.7
    // 16-byte flits per interconnect cycle.
    const auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    EXPECT_NEAR(dramBandwidthFlitsPerIcntCycle(p), 14.71, 0.05);
    const auto bw = makeBwLimitedConfig(0.816);
    EXPECT_EQ(bw.netKind, NetKind::BW_LIMITED);
    EXPECT_NEAR(bw.idealFlitsPerCycle, 12.0, 0.05);
}

TEST(ChipConfig, AreaSpecsMatchSimulatedConfigs)
{
    // The Table VI area rows of every named configuration: (sub)network
    // count, channel bytes, VCs per port, half-router checkerboard, MC
    // injection and ejection ports.  All are 6x6 meshes with 8 MCs and
    // 8-flit VCs.
    struct Row
    {
        ConfigId id;
        unsigned subnetworks;
        double channelBytes;
        unsigned vcs;
        bool checkerboard;
        unsigned mcInjPorts;
        unsigned mcEjPorts;
    };
    const Row rows[] = {
        {ConfigId::BASELINE_TB_DOR, 1, 16.0, 2, false, 1, 1},
        {ConfigId::TB_DOR_2X, 1, 32.0, 2, false, 1, 1},
        {ConfigId::TB_DOR_1CYC, 1, 16.0, 2, false, 1, 1},
        {ConfigId::PERFECT, 1, 16.0, 2, false, 1, 1},
        {ConfigId::CP_DOR_2VC, 1, 16.0, 2, false, 1, 1},
        {ConfigId::CP_DOR_4VC, 1, 16.0, 4, false, 1, 1},
        {ConfigId::CP_CR_4VC, 1, 16.0, 4, true, 1, 1},
        {ConfigId::CP_CR_SINGLE_16B_4VC, 1, 16.0, 4, true, 1, 1},
        {ConfigId::CP_CR_DOUBLE, 2, 8.0, 4, true, 1, 1},
        {ConfigId::CP_CR_DOUBLE_2INJ, 2, 8.0, 4, true, 2, 1},
        {ConfigId::CP_CR_DOUBLE_2EJ, 2, 8.0, 4, true, 1, 2},
        {ConfigId::CP_CR_DOUBLE_2INJ2EJ, 2, 8.0, 4, true, 2, 2},
        {ConfigId::THROUGHPUT_EFFECTIVE, 2, 8.0, 4, true, 2, 1},
        {ConfigId::CP_CR_2INJ_SINGLE, 1, 16.0, 4, true, 2, 1},
    };
    ASSERT_EQ(std::size(rows), std::size(kAll));
    for (const Row &row : rows) {
        const MeshAreaSpec s = areaSpecFor(makeConfig(row.id));
        SCOPED_TRACE(configName(row.id));
        EXPECT_EQ(s.rows, 6u);
        EXPECT_EQ(s.cols, 6u);
        EXPECT_EQ(s.numMcs, 8u);
        EXPECT_EQ(s.buffersPerVc, 8u);
        EXPECT_EQ(s.subnetworks, row.subnetworks);
        EXPECT_EQ(s.channelBytes, row.channelBytes);
        EXPECT_EQ(s.vcs, row.vcs);
        EXPECT_EQ(s.checkerboard, row.checkerboard);
        EXPECT_EQ(s.mcInjPorts, row.mcInjPorts);
        EXPECT_EQ(s.mcEjPorts, row.mcEjPorts);
    }
}

TEST(ChipConfig, SeedPropagates)
{
    const auto a = makeConfig(ConfigId::BASELINE_TB_DOR, 7);
    const auto b = makeConfig(ConfigId::BASELINE_TB_DOR, 8);
    EXPECT_NE(a.mesh.seed, b.mesh.seed);
}

} // namespace
} // namespace tenoc
