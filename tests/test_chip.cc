/**
 * @file
 * Closed-loop integration tests.  Kernels are scaled short so these
 * stay fast; behavioural invariants rather than exact numbers.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "accel/chip.hh"
#include "accel/experiments.hh"

namespace tenoc
{
namespace
{

KernelProfile
quick(const char *abbr, double scale = 0.1)
{
    return scaleWorkload(findWorkload(abbr), scale);
}

TEST(Chip, ComputeBoundWorkloadNearsPeak)
{
    const auto r =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), quick("AES"));
    EXPECT_FALSE(r.timedOut);
    // Peak is 8 scalar IPC per core x 28 cores = 224.
    EXPECT_GT(r.ipc, 200.0);
    EXPECT_LE(r.ipc, 224.0);
    EXPECT_LT(r.mcStallFractionMean, 0.05);
}

TEST(Chip, AllInstructionsExecute)
{
    const auto profile = quick("MM", 0.1);
    const auto r =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), profile);
    EXPECT_EQ(r.scalarInsts,
              profile.totalWarpInsts(28) * 32);
}

TEST(Chip, DeterministicForSameSeed)
{
    const auto p = makeConfig(ConfigId::BASELINE_TB_DOR, 5);
    const auto a = runWorkload(p, quick("BFS"));
    const auto b = runWorkload(p, quick("BFS"));
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.packetsEjected, b.packetsEjected);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

TEST(Chip, PerfectNetworkBeatsBaselineOnHeavyTraffic)
{
    const auto prof = quick("BFS", 0.15);
    const auto base =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto perfect =
        runWorkload(makeConfig(ConfigId::PERFECT), prof);
    EXPECT_GT(perfect.ipc, base.ipc * 1.2);
    EXPECT_EQ(perfect.avgNetLatency, 0.0);
    EXPECT_GT(base.mcStallFractionMean, 0.1); // Fig. 11 behaviour
}

TEST(Chip, ClockDomainRatiosHold)
{
    const auto r =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), quick("AES"));
    EXPECT_NEAR(static_cast<double>(r.coreCycles) /
                    static_cast<double>(r.icntCycles),
                1296.0 / 602.0, 0.05);
    EXPECT_NEAR(static_cast<double>(r.memCycles) /
                    static_cast<double>(r.icntCycles),
                1107.0 / 602.0, 0.05);
}

TEST(Chip, BandwidthLimitedNetworkThrottles)
{
    const auto prof = quick("SCP", 0.15);
    const auto wide = runWorkload(makeBwLimitedConfig(1.6), prof);
    const auto narrow = runWorkload(makeBwLimitedConfig(0.1), prof);
    EXPECT_GT(wide.ipc, narrow.ipc * 1.3);
}

TEST(Chip, CheckerboardConfigRunsCleanly)
{
    const auto r = runWorkload(makeConfig(ConfigId::CP_CR_4VC),
                               quick("KM", 0.12));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Chip, DoubleNetworkRunsCleanly)
{
    const auto r =
        runWorkload(makeConfig(ConfigId::THROUGHPUT_EFFECTIVE),
                    quick("KM", 0.12));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Chip, BaselineRunsCleanlyUnderValidation)
{
    // The closed loop with the runtime invariant checker armed.
    auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    p.mesh.validate = true;
    const auto r = runWorkload(p, quick("KM", 0.12));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Chip, McInjectionRatioIsManyToFewSkewed)
{
    // Sec. III-D: MCs inject several times more bytes/cycle than
    // cores (6.9x in the paper).
    const auto r = runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR),
                               quick("LIB", 0.15));
    EXPECT_GT(r.mcToCoreInjectionRatio, 3.0);
    EXPECT_LT(r.mcToCoreInjectionRatio, 15.0);
}

TEST(Chip, RunSuiteProducesAllBenchmarks)
{
    // Tiny scale smoke of the experiment driver.
    const auto runs =
        runSuite(makeConfig(ConfigId::BASELINE_TB_DOR), 0.02);
    ASSERT_EQ(runs.size(), 31u);
    for (const auto &r : runs) {
        EXPECT_FALSE(r.result.timedOut) << r.abbr;
        EXPECT_GT(r.result.ipc, 0.0) << r.abbr;
    }
}

TEST(Chip, OneCycleRoutersCutLatencyNotThroughputForCompute)
{
    // The Sec. III-C result in miniature: aggressive routers shrink
    // network latency but barely move a compute-bound workload's IPC.
    const auto prof = quick("AES", 0.1);
    const auto base =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto fast =
        runWorkload(makeConfig(ConfigId::TB_DOR_1CYC), prof);
    EXPECT_LT(fast.avgNetLatency, base.avgNetLatency * 0.8);
    EXPECT_NEAR(fast.ipc / base.ipc, 1.0, 0.05);
}

TEST(Chip, BandwidthHelpsHeavyTrafficMoreThanLatency)
{
    const auto prof = quick("BFS", 0.15);
    const auto base =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto two = runWorkload(makeConfig(ConfigId::TB_DOR_2X), prof);
    const auto fast =
        runWorkload(makeConfig(ConfigId::TB_DOR_1CYC), prof);
    EXPECT_GT(two.ipc / base.ipc, 1.15);
    EXPECT_GT(two.ipc, fast.ipc);
}

TEST(Chip, CheckerboardPlacementHelpsHeavyTraffic)
{
    const auto prof = quick("KM", 0.15);
    const auto tb =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto cp = runWorkload(makeConfig(ConfigId::CP_DOR_2VC), prof);
    EXPECT_GT(cp.ipc, tb.ipc * 1.05);
}

TEST(Chip, MultiPortMcsHelpTheDoubleNetwork)
{
    const auto prof = quick("SCP", 0.15);
    const auto dbl =
        runWorkload(makeConfig(ConfigId::CP_CR_DOUBLE), prof);
    const auto twop =
        runWorkload(makeConfig(ConfigId::CP_CR_DOUBLE_2INJ), prof);
    EXPECT_GT(twop.ipc, dbl.ipc * 1.02);
}

TEST(Chip, SeedChangesResultsOnlySlightly)
{
    const auto prof = quick("MM", 0.1);
    const auto a =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR, 1), prof);
    const auto b =
        runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR, 2), prof);
    EXPECT_NE(a.coreCycles, b.coreCycles); // different randomness...
    EXPECT_NEAR(a.ipc / b.ipc, 1.0, 0.10); // ...same physics
}

TEST(Chip, AgePriorityRunsCleanly)
{
    auto params = makeConfig(ConfigId::CP_DOR_2VC);
    params.mesh.agePriority = true;
    const auto r = runWorkload(params, quick("SS", 0.1));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.ipc, 1.0);
}

TEST(Chip, MultiKernelLaunchesExecuteEverything)
{
    auto prof = quick("MM", 0.05);
    const auto single = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    prof.numKernels = 4;
    const auto multi = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    EXPECT_FALSE(multi.timedOut);
    // Same per-launch work, four launches.
    EXPECT_EQ(multi.scalarInsts, 4 * single.scalarInsts);
    // Launch barriers cost drain time while later launches reuse warm
    // DRAM row state; either way the result stays near the
    // single-launch rate.
    EXPECT_GT(multi.coreCycles, single.coreCycles * 3);
    EXPECT_NEAR(multi.ipc / single.ipc, 1.0, 0.35);
}

TEST(Chip, KernelBarrierExposesNetworkTailLatency)
{
    // With many short launches the drain tails are network-latency
    // sensitive, so a perfect NoC gains more than it does on the
    // single-launch version of the same workload.
    auto prof = quick("LPS", 0.05);
    prof.numKernels = 8;
    const auto base = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof);
    const auto perfect =
        runWorkload(makeConfig(ConfigId::PERFECT), prof);
    EXPECT_GT(perfect.ipc, base.ipc * 1.01);
}

/** Integer counters of a finished run that no host-speed change may
 *  move. */
struct MemoryCounters
{
    std::uint64_t coreCycles = 0;
    std::uint64_t icntCycles = 0;
    std::uint64_t memCycles = 0;
    std::uint64_t stallSlots = 0; ///< summed over cores
    std::uint64_t readsSent = 0;
    std::uint64_t writesSent = 0;
    /** Per DRAM channel: served requests, row hits, row misses,
     *  bus-busy cycles, pending cycles, blocked_by_return_buffer. */
    std::vector<std::array<std::uint64_t, 6>> dram;
};

std::uint64_t
statValue(const StatGroup &g, const std::string &name)
{
    for (const auto &v : g.values()) {
        if (v.name == name)
            return static_cast<std::uint64_t>(v.fn());
    }
    for (const Counter *c : g.counters()) {
        if (c->name() == name)
            return c->value();
    }
    ADD_FAILURE() << "no stat " << g.name() << "." << name;
    return 0;
}

MemoryCounters
runCounters(ConfigId id, const char *abbr, double scale)
{
    Chip chip(makeConfig(id), quick(abbr, scale));
    EXPECT_FALSE(chip.run().timedOut);
    const StatGroup &root = chip.statGroup();
    MemoryCounters m;
    m.coreCycles = statValue(root, "core_cycles");
    m.icntCycles = statValue(root, "icnt_cycles");
    m.memCycles = statValue(root, "mem_cycles");
    for (const StatGroup *g : root.children()) {
        if (g->name().rfind("core", 0) == 0) {
            m.stallSlots += statValue(*g, "stall_slots");
            m.readsSent += statValue(*g, "reads_sent");
            m.writesSent += statValue(*g, "writes_sent");
        } else if (g->name().rfind("mc", 0) == 0) {
            const StatGroup &d = *g->children().at(0);
            m.dram.push_back({statValue(d, "served_requests"),
                              statValue(d, "row_hits"),
                              statValue(d, "row_misses"),
                              statValue(d, "bus_busy_cycles"),
                              statValue(d, "pending_cycles"),
                              statValue(d, "blocked_by_return_buffer")});
        }
    }
    return m;
}

void
expectCounters(const MemoryCounters &got, const MemoryCounters &want)
{
    EXPECT_EQ(got.coreCycles, want.coreCycles);
    EXPECT_EQ(got.icntCycles, want.icntCycles);
    EXPECT_EQ(got.memCycles, want.memCycles);
    EXPECT_EQ(got.stallSlots, want.stallSlots);
    EXPECT_EQ(got.readsSent, want.readsSent);
    EXPECT_EQ(got.writesSent, want.writesSent);
    ASSERT_EQ(got.dram.size(), want.dram.size());
    for (std::size_t c = 0; c < want.dram.size(); ++c)
        EXPECT_EQ(got.dram[c], want.dram[c]) << "DRAM channel " << c;
}

// Pinned from a run before the memory-side stall memos existed: the
// memos only skip work whose outcome is known, so any counter they
// move is a bug (the CAS/row-hit/idle split of every DRAM cycle shows
// up in these numbers).

TEST(ChipCounters, PerfectNocMemorySideIsPinned)
{
    MemoryCounters want;
    want.coreCycles = 3507;
    want.icntCycles = 1630;
    want.memCycles = 2998;
    want.stallSlots = 17304;
    want.readsSent = 3220;
    want.writesSent = 951;
    want.dram = {{378, 80, 298, 2786, 2862, 90},
                 {360, 79, 281, 2790, 2844, 84},
                 {366, 85, 281, 2796, 2825, 85},
                 {361, 90, 271, 2833, 2863, 53},
                 {359, 82, 277, 2741, 2765, 85},
                 {343, 89, 254, 2724, 2779, 67},
                 {379, 86, 293, 2867, 2909, 105},
                 {345, 83, 262, 2693, 2716, 95}};
    expectCounters(runCounters(ConfigId::PERFECT, "BFS", 0.05), want);
}

TEST(ChipCounters, TbDorMemorySideIsPinned)
{
    MemoryCounters want;
    want.coreCycles = 6891;
    want.icntCycles = 3203;
    want.memCycles = 5891;
    want.stallSlots = 33011;
    want.readsSent = 3219;
    want.writesSent = 951;
    want.dram = {{337, 64, 273, 3036, 4389, 1385},
                 {356, 68, 288, 3349, 5015, 3368},
                 {339, 68, 271, 3225, 5294, 4006},
                 {369, 81, 288, 3413, 4723, 2564},
                 {365, 74, 291, 3372, 4638, 2060},
                 {365, 101, 264, 3378, 5338, 3194},
                 {384, 78, 306, 3668, 5713, 4274},
                 {378, 99, 279, 3489, 4838, 2178}};
    expectCounters(
        runCounters(ConfigId::BASELINE_TB_DOR, "BFS", 0.05), want);
}

TEST(Chip, LayerProfileSplitsHostTimeWithoutChangingResults)
{
    const auto params = makeConfig(ConfigId::PERFECT);
    const auto prof = quick("BFS", 0.05);
    const ChipResult plain = runWorkload(params, prof);
    ChipLayerProfile layers;
    RunOptions opts;
    opts.layerProfile = &layers;
    const ChipResult split = runWorkload(params, prof, nullptr, opts);
    EXPECT_EQ(split.coreCycles, plain.coreCycles);
    EXPECT_EQ(split.scalarInsts, plain.scalarInsts);
    EXPECT_EQ(split.packetsEjected, plain.packetsEjected);
    EXPECT_GT(layers.coresNs, 0u);
    EXPECT_GT(layers.mcL2Ns, 0u);
    EXPECT_GT(layers.dramNs, 0u);
    EXPECT_GT(layers.networkNs, 0u);
}

TEST(Chip, EnvScaleParsing)
{
    ::setenv("TENOC_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(envScale(1.0), 0.25);
    ::setenv("TENOC_SCALE", "junk", 1);
    EXPECT_DOUBLE_EQ(envScale(1.0), 1.0);
    ::unsetenv("TENOC_SCALE");
    EXPECT_DOUBLE_EQ(envScale(0.5), 0.5);
}

} // namespace
} // namespace tenoc
