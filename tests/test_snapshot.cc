/**
 * @file
 * Checkpoint/restore correctness: a run interrupted by a checkpoint
 * and resumed in a fresh process image must be indistinguishable —
 * bit-for-bit in the final sealed state, not just statistically — from
 * the run that was never interrupted.  Exercised across the scheduler
 * knobs that must not leak into architectural state (idle-skip,
 * validation) and both network shapes, plus the
 * rejection paths (wrong version, trailing bytes, wrong structure).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "accel/chip.hh"
#include "accel/chip_config.hh"
#include "accel/experiments.hh"
#include "common/snapshot.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{
namespace
{

/** Temp snapshot path unique to the current test. */
std::string
snapPath(const char *tag)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "tenoc_" + info->name() + "_" + tag +
           ".snap";
}

std::vector<std::uint8_t>
sealedState(const Chip &chip)
{
    SnapshotWriter w;
    chip.save(w);
    return sealSnapshot(w);
}

/**
 * Audits every mesh of `net` (both slices of a double network) at
 * `now`: a restore must rebuild derived state, such as the routers'
 * stage-ready words, to match the restored VC state.  Networks with
 * no mesh slices (the ideal networks) have nothing to audit.
 */
void
expectCleanAudit(Network &net, Cycle now)
{
    std::vector<const MeshNetwork *> meshes;
    if (auto *dn = dynamic_cast<DoubleNetwork *>(&net)) {
        meshes = {&dn->requestNet(), &dn->replyNet()};
    } else if (auto *mn = dynamic_cast<MeshNetwork *>(&net)) {
        meshes = {mn};
    }
    for (const MeshNetwork *mesh : meshes) {
        for (const Violation &v : mesh->checker().audit(now)) {
            ADD_FAILURE() << "[" << violationKindName(v.kind) << "] "
                          << v.message;
        }
    }
}

/**
 * Runs `params` to completion twice — once straight through, once
 * checkpointed at `at` and resumed into a fresh Chip — and requires
 * identical results and identical final sealed state.
 */
void
expectResumeBitIdentical(const ChipParams &params, const char *abbr,
                         double scale, Cycle at)
{
    const auto prof = scaleWorkload(findWorkload(abbr), scale);
    const std::string path = snapPath("mid");

    Chip uninterrupted(params, prof);
    const ChipResult want = uninterrupted.run();
    ASSERT_FALSE(want.timedOut);

    Chip first(params, prof);
    first.scheduleCheckpoint(at, path);
    first.run();

    Chip resumed(params, prof);
    std::string error;
    ASSERT_TRUE(resumed.restoreFromFile(path, &error)) << error;
    expectCleanAudit(resumed.network(), at);
    const ChipResult got = resumed.run();

    EXPECT_EQ(want.scalarInsts, got.scalarInsts);
    EXPECT_EQ(want.coreCycles, got.coreCycles);
    EXPECT_EQ(want.icntCycles, got.icntCycles);
    EXPECT_EQ(want.memCycles, got.memCycles);
    EXPECT_EQ(want.packetsEjected, got.packetsEjected);
    EXPECT_EQ(want.timedOut, got.timedOut);
    EXPECT_EQ(want.ipc, got.ipc);
    EXPECT_EQ(want.avgNetLatency, got.avgNetLatency);
    EXPECT_EQ(want.dramEfficiency, got.dramEfficiency);

    // The strong form: every counter, buffer, and queue agrees.
    EXPECT_EQ(sealedState(uninterrupted), sealedState(resumed));
    std::remove(path.c_str());
}

TEST(Snapshot, ResumeMatchesUninterruptedBaseline)
{
    expectResumeBitIdentical(makeConfig(ConfigId::BASELINE_TB_DOR),
                             "MM", 0.05, 300);
}

TEST(Snapshot, ResumeMatchesWithoutIdleSkip)
{
    auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    p.mesh.idleSkip = false;
    expectResumeBitIdentical(p, "MM", 0.05, 300);
}

TEST(Snapshot, ResumeMatchesWithValidation)
{
    auto p = makeConfig(ConfigId::BASELINE_TB_DOR);
    p.mesh.validate = true;
    p.mesh.validateInterval = 16;
    expectResumeBitIdentical(p, "BFS", 0.05, 400);
}

TEST(Snapshot, ResumeMatchesDoubleNetwork)
{
    expectResumeBitIdentical(makeConfig(ConfigId::CP_CR_DOUBLE),
                             "BFS", 0.05, 400);
}

TEST(Snapshot, ResumeMatchesThroughputEffective)
{
    auto p = makeConfig(ConfigId::THROUGHPUT_EFFECTIVE);
    p.mesh.validate = true;
    expectResumeBitIdentical(p, "MM", 0.05, 300);
}

TEST(Snapshot, ResumeMatchesPerfectNoc)
{
    // At icnt cycle 380, 24 of the 28 cores are stalled on nearly
    // full MSHR tables with their stall memos armed, the DRAM queues
    // are full and one channel's idle memo is armed.  The memos are
    // not serialized: the resumed chip starts with them disarmed, and
    // validation audits every slot and cycle they skip afterwards.
    auto p = makeConfig(ConfigId::PERFECT);
    p.mesh.validate = true;
    expectResumeBitIdentical(p, "BFS", 0.05, 380);
}

TEST(Snapshot, ResumeMatchesBandwidthLimitedNoc)
{
    // Packets wait for tokens in the ideal network's own queue.
    expectResumeBitIdentical(makeBwLimitedConfig(0.2), "BFS", 0.05, 300);
}

/**
 * One warm-up checkpoint consumed by two differently *scheduled*
 * downstream runs (validation on; the full-tick scheduler restoring an
 * idle-skip checkpoint).  Scheduler knobs are bit-exact by design, so
 * both resumed runs must land in the identical final state as the
 * uninterrupted reference.
 */
TEST(Snapshot, WarmupFeedsTwoDownstreamConfigs)
{
    const auto base = makeConfig(ConfigId::BASELINE_TB_DOR);
    const auto prof = scaleWorkload(findWorkload("MM"), 0.05);
    const std::string path = snapPath("warm");

    Chip uninterrupted(base, prof);
    uninterrupted.run();
    const auto want = sealedState(uninterrupted);

    Chip warmup(base, prof);
    warmup.scheduleCheckpoint(250, path);
    warmup.run();

    auto with_validate = base;
    with_validate.mesh.validate = true;
    with_validate.mesh.validateInterval = 32;
    Chip a(with_validate, prof);
    std::string error;
    ASSERT_TRUE(a.restoreFromFile(path, &error)) << error;
    a.run();
    EXPECT_EQ(want, sealedState(a));

    auto full_tick = base;
    full_tick.mesh.idleSkip = false;
    Chip b(full_tick, prof);
    ASSERT_TRUE(b.restoreFromFile(path, &error)) << error;
    b.run();
    EXPECT_EQ(want, sealedState(b));
    std::remove(path.c_str());
}

TEST(Snapshot, RoundTripPrimitives)
{
    SnapshotWriter w;
    w.tag("TEST");
    w.u8(0x5a);
    w.boolean(true);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefULL);
    w.i64(-42);
    w.f64(3.25);
    w.str("hello");

    SnapshotReader r;
    std::string error;
    ASSERT_TRUE(openSnapshot(sealSnapshot(w), r, &error)) << error;
    r.tag("TEST");
    EXPECT_EQ(r.u8(), 0x5a);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.exhausted());
}

TEST(Snapshot, RejectsWrongFormatVersion)
{
    SnapshotWriter w;
    w.u32(7);
    auto blob = sealSnapshot(w);
    blob[4] ^= 0xff; // format version field (after the magic)

    SnapshotReader r;
    std::string error;
    EXPECT_FALSE(openSnapshot(blob, r, &error));
    EXPECT_NE(error.find("format version"), std::string::npos)
        << error;
}

TEST(Snapshot, RejectsFormatVersion3Blob)
{
    // Format 3 still carried tag arrays, store-line sets, writeback
    // queues and trace cursors per core; such a blob must be refused
    // up front, not misparsed.
    SnapshotWriter w;
    w.u32(7);
    auto blob = sealSnapshot(w);
    blob[4] = 3; // format version field (after the magic), little-endian
    blob[5] = blob[6] = blob[7] = 0;

    SnapshotReader r;
    std::string error;
    EXPECT_FALSE(openSnapshot(blob, r, &error));
    EXPECT_EQ(error, "snapshot format version 3 incompatible with this"
                     " build (expects 5)");
}

TEST(Snapshot, RejectsFormatVersion4Blob)
{
    // Format 4 still tagged DRAM requests and kept the MC's
    // tag-to-requester map; such a blob must be refused up front, not
    // misparsed.
    SnapshotWriter w;
    w.u32(7);
    auto blob = sealSnapshot(w);
    blob[4] = 4; // format version field (after the magic), little-endian
    blob[5] = blob[6] = blob[7] = 0;

    SnapshotReader r;
    std::string error;
    EXPECT_FALSE(openSnapshot(blob, r, &error));
    EXPECT_EQ(error, "snapshot format version 4 incompatible with this"
                     " build (expects 5)");
}

TEST(Snapshot, RejectsWrongSimulatorVersion)
{
    SnapshotWriter w;
    w.u32(7);
    auto blob = sealSnapshot(w);
    // The simulator-version string starts right after magic + format
    // + its u64 length.
    blob[16] ^= 0xff;

    SnapshotReader r;
    std::string error;
    EXPECT_FALSE(openSnapshot(blob, r, &error));
    EXPECT_NE(error.find("simulator version"), std::string::npos)
        << error;
}

TEST(Snapshot, RejectsBadMagicAndTruncation)
{
    SnapshotWriter w;
    w.u64(99);
    auto blob = sealSnapshot(w);

    auto bad_magic = blob;
    bad_magic[0] ^= 0xff;
    SnapshotReader r;
    std::string error;
    EXPECT_FALSE(openSnapshot(bad_magic, r, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    auto truncated = blob;
    truncated.pop_back();
    EXPECT_FALSE(openSnapshot(truncated, r, &error));

    auto padded = blob;
    padded.push_back(0);
    EXPECT_FALSE(openSnapshot(padded, r, &error));
}

TEST(Snapshot, ChipRejectsVersionMismatchedFile)
{
    const auto params = makeConfig(ConfigId::BASELINE_TB_DOR);
    const auto prof = scaleWorkload(findWorkload("MM"), 0.02);
    const std::string path = snapPath("ver");

    Chip chip(params, prof);
    std::string error;
    ASSERT_TRUE(chip.saveToFile(path, &error)) << error;

    // Corrupt the simulator-version string on disk.
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(16);
    f.put('\xff');
    f.close();

    Chip victim(params, prof);
    EXPECT_FALSE(victim.restoreFromFile(path, &error));
    EXPECT_NE(error.find("simulator version"), std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(Snapshot, ChipRejectsTrailingBytes)
{
    const auto params = makeConfig(ConfigId::BASELINE_TB_DOR);
    const auto prof = scaleWorkload(findWorkload("MM"), 0.02);
    const std::string path = snapPath("trail");

    Chip chip(params, prof);
    SnapshotWriter w;
    chip.save(w);
    w.u64(0xfeedULL); // bytes no restore() will consume
    std::string error;
    ASSERT_TRUE(saveSnapshotFile(path, w, &error)) << error;

    Chip victim(params, prof);
    EXPECT_FALSE(victim.restoreFromFile(path, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, ChipRefusesStructuralMismatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto params = makeConfig(ConfigId::BASELINE_TB_DOR);
    const auto prof = scaleWorkload(findWorkload("MM"), 0.02);
    const std::string path = snapPath("shape");

    Chip chip(params, prof);
    std::string error;
    ASSERT_TRUE(chip.saveToFile(path, &error)) << error;

    // A structurally different chip (double network) must refuse the
    // blob loudly rather than misinterpret it.
    auto other = makeConfig(ConfigId::CP_CR_DOUBLE);
    Chip victim(other, prof);
    EXPECT_DEATH(
        { victim.restoreFromFile(path, &error); }, "");
    std::remove(path.c_str());
}

TEST(SnapshotDeathTest, CycleThreadsAboveOneIsFatal)
{
    // Every network cycles serially; a config still asking for cycle
    // threads must fail loudly instead of silently running serial.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto params = makeConfig(ConfigId::BASELINE_TB_DOR);
    params.mesh.cycleThreads = 2;
    const auto prof = scaleWorkload(findWorkload("MM"), 0.02);
    EXPECT_EXIT({ Chip chip(params, prof); },
                ::testing::ExitedWithCode(1), "engine was removed");
}

TEST(SnapshotDeathTest, OutputFileWithoutCycleIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RunOptions opts;
    opts.checkpointOut = snapPath("orphan");
    EXPECT_DEATH(
        {
            runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR),
                        scaleWorkload(findWorkload("MM"), 0.02), nullptr,
                        opts);
        },
        "without a checkpoint cycle");
}

TEST(SnapshotDeathTest, CheckpointPastRunEndIsFatal)
{
    // The run ends long before the armed cycle, so no snapshot is
    // written; that must not pass as success.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RunOptions opts;
    opts.checkpointAt = 999999999;
    opts.checkpointOut = snapPath("late");
    EXPECT_DEATH(
        {
            runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR),
                        scaleWorkload(findWorkload("MM"), 0.02), nullptr,
                        opts);
        },
        "before the checkpoint armed");
    std::ifstream written(opts.checkpointOut);
    EXPECT_FALSE(written.good());
}

} // namespace
} // namespace tenoc
