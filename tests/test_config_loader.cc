/**
 * @file
 * Tests for building ChipParams from dotted-key Configs.
 */

#include <gtest/gtest.h>

#include "accel/chip_config.hh"

namespace tenoc
{
namespace
{

TEST(ConfigLoader, DefaultsToBaseline)
{
    Config cfg;
    const auto p = chipParamsFromConfig(cfg);
    const auto ref = makeConfig(ConfigId::BASELINE_TB_DOR);
    EXPECT_EQ(p.mesh.flitBytes, ref.mesh.flitBytes);
    EXPECT_EQ(p.mesh.routing, ref.mesh.routing);
    EXPECT_EQ(p.netKind, NetKind::MESH);
}

TEST(ConfigLoader, BaseNames)
{
    EXPECT_EQ(configIdFromName("baseline"),
              ConfigId::BASELINE_TB_DOR);
    EXPECT_EQ(configIdFromName("2x"), ConfigId::TB_DOR_2X);
    EXPECT_EQ(configIdFromName("perfect"), ConfigId::PERFECT);
    EXPECT_EQ(configIdFromName("cp-cr"), ConfigId::CP_CR_4VC);
    EXPECT_EQ(configIdFromName("thr-eff"),
              ConfigId::THROUGHPUT_EFFECTIVE);
    EXPECT_EQ(configIdFromName("cp-cr-2p"),
              ConfigId::CP_CR_2INJ_SINGLE);
}

TEST(ConfigLoader, OverridesApply)
{
    Config cfg;
    cfg.parseText(
        "base = cp-cr\n"
        "noc.flitBytes = 32\n"
        "noc.mcInjPorts = 2\n"
        "noc.vcDepth = 16\n"
        "clk.coreMhz = 1000\n"
        "dram.banks = 4\n"
        "sim.seed = 99\n");
    const auto p = chipParamsFromConfig(cfg);
    EXPECT_EQ(p.mesh.flitBytes, 32u);
    EXPECT_EQ(p.mesh.mcInjPorts, 2u);
    EXPECT_EQ(p.mesh.vcDepth, 16u);
    EXPECT_DOUBLE_EQ(p.coreClockMhz, 1000.0);
    EXPECT_EQ(p.mc.dram.timing.numBanks, 4u);
    EXPECT_EQ(p.mesh.routing, "cr");
    EXPECT_TRUE(p.mesh.topo.checkerboardRouters);
}

TEST(ConfigLoader, PlacementStrings)
{
    Config cfg;
    cfg.set("noc.placement", "checkerboard");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.topo.placement,
              McPlacement::CHECKERBOARD);
    cfg.set("noc.placement", "top-bottom");
    EXPECT_EQ(chipParamsFromConfig(cfg).mesh.topo.placement,
              McPlacement::TOP_BOTTOM);
}

TEST(ConfigLoader, SlicingToggle)
{
    Config cfg;
    cfg.set("base", "thr-eff");
    EXPECT_EQ(chipParamsFromConfig(cfg).netKind, NetKind::DOUBLE);
    cfg.set("noc.sliced", false);
    EXPECT_EQ(chipParamsFromConfig(cfg).netKind, NetKind::MESH);
}

TEST(ConfigLoader, McCountPropagatesToInterleaving)
{
    Config cfg;
    cfg.set("noc.rows", 8);
    cfg.set("noc.cols", 8);
    cfg.set("noc.mcs", 16);
    const auto p = chipParamsFromConfig(cfg);
    EXPECT_EQ(p.mesh.topo.numMcs, 16u);
    EXPECT_EQ(p.mc.numChannels, 16u);
}

TEST(ConfigLoaderDeath, UnknownKeyIsFatal)
{
    Config cfg;
    cfg.set("noc.flitbytes", 32); // wrong capitalization
    EXPECT_EXIT(chipParamsFromConfig(cfg),
                ::testing::ExitedWithCode(1), "unknown configuration");

    // The network is the paper's mesh only: the retired topology keys
    // fail instead of quietly running a mesh.
    Config topo;
    topo.set("noc.topology", "mesh");
    EXPECT_EXIT(chipParamsFromConfig(topo),
                ::testing::ExitedWithCode(1), "unknown configuration");
    Config conc;
    conc.set("noc.concentration", 1);
    EXPECT_EXIT(chipParamsFromConfig(conc),
                ::testing::ExitedWithCode(1), "unknown configuration");
}

TEST(ConfigLoaderDeath, UnknownBaseIsFatal)
{
    Config cfg;
    cfg.set("base", "bogus");
    EXPECT_EXIT(chipParamsFromConfig(cfg),
                ::testing::ExitedWithCode(1), "unknown base");
}

TEST(ConfigLoaderDeath, UnknownPlacementIsFatal)
{
    Config cfg;
    cfg.set("noc.placement", "diagonal");
    EXPECT_EXIT(chipParamsFromConfig(cfg),
                ::testing::ExitedWithCode(1), "unknown placement");
}

TEST(ConfigLoaderDeath, DramQueueWiderThanMaskIsFatal)
{
    Config cfg;
    cfg.set("dram.queueCapacity", 65);
    EXPECT_EXIT(chipParamsFromConfig(cfg), ::testing::ExitedWithCode(1),
                "dram.queueCapacity must lie in \\[1, 64\\] \\(got 65\\)");

    // 64 is the widest queue the masks index.
    Config widest;
    widest.set("dram.queueCapacity", 64);
    EXPECT_EQ(chipParamsFromConfig(widest).mc.dram.queueCapacity, 64u);
}

} // namespace
} // namespace tenoc
