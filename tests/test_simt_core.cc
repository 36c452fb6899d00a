/**
 * @file
 * Tests for the SIMT core model with a scripted memory port.
 */

#include <gtest/gtest.h>

#include <deque>

#include "gpu/simt_core.hh"

namespace tenoc
{
namespace
{

/** Memory port that answers reads after a fixed delay. */
class FakePort : public CoreMemPort
{
  public:
    unsigned
    requestSpace() const override
    {
        return accepting ? space : 0;
    }

    void
    sendRead(Addr line) override
    {
        ++reads;
        pending.push_back(line);
    }

    void
    sendWrite(Addr line) override
    {
        (void)line;
        ++writes;
    }

    /** Delivers up to `n` oldest replies to `core`. */
    void
    replyOldest(SimtCore &core, unsigned n)
    {
        while (n-- && !pending.empty()) {
            core.onReadReply(pending.front());
            pending.pop_front();
        }
    }

    bool accepting = true;
    unsigned space = 64;
    unsigned reads = 0;
    unsigned writes = 0;
    std::deque<Addr> pending;
};

KernelProfile
computeProfile()
{
    KernelProfile p;
    p.abbr = "TEST";
    p.warpsPerCore = 4;
    p.warpInstsPerWarp = 100;
    p.memFraction = 0.0; // pure ALU
    return p;
}

TEST(SimtCore, PureComputeRunsAtPeak)
{
    FakePort port;
    SimtCoreParams params;
    const auto prof = computeProfile();
    SimtCore core(0, params, prof, port, 1);
    Cycle t = 0;
    while (!core.done() && t < 100000)
        core.cycle(t++);
    ASSERT_TRUE(core.done());
    EXPECT_EQ(core.warpInstsIssued(), 400u);
    EXPECT_EQ(core.scalarInsts(), 400u * 32u);
    // One warp instruction per 4 cycles: 1600 cycles + epsilon.
    EXPECT_NEAR(static_cast<double>(t), 1600.0, 20.0);
    EXPECT_EQ(port.reads, 0u);
}

TEST(SimtCore, IssueIntervalFromWidths)
{
    SimtCoreParams p;
    EXPECT_EQ(p.issueInterval(), 4u); // 32-thread warp on 8 lanes
}

TEST(SimtCore, MemoryInstructionsSendReads)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.memFraction = 0.5;
    prof.l1HitRate = 0.0;
    prof.avgLinesPerMemInst = 1.0;
    prof.maxPendingLines = 64;
    prof.writebackRate = 0.0;
    SimtCore core(0, params, prof, port, 2);
    Cycle t = 0;
    while (!core.done() && t < 1000000) {
        core.cycle(t++);
        port.replyOldest(core, 2);
    }
    ASSERT_TRUE(core.done());
    // About half the 400 instructions are loads that all miss.
    EXPECT_NEAR(static_cast<double>(port.reads), 200.0, 40.0);
    EXPECT_EQ(port.writes, 0u);
    EXPECT_NEAR(static_cast<double>(core.memInsts()),
                static_cast<double>(port.reads), 1.0);
}

TEST(SimtCore, WritebacksEmitWrites)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.memFraction = 0.5;
    prof.l1HitRate = 0.0;
    prof.writebackRate = 1.0; // every miss evicts dirty
    prof.maxPendingLines = 64;
    SimtCore core(0, params, prof, port, 3);
    Cycle t = 0;
    while (!core.done() && t < 1000000) {
        core.cycle(t++);
        port.replyOldest(core, 4);
    }
    ASSERT_TRUE(core.done());
    EXPECT_EQ(port.writes, port.reads);
}

TEST(SimtCore, MlpLimitsOutstandingLines)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.memFraction = 1.0;
    prof.l1HitRate = 0.0;
    prof.avgLinesPerMemInst = 1.0;
    prof.maxPendingLines = 3;
    prof.writebackRate = 0.0;
    SimtCore core(0, params, prof, port, 4);
    // Never reply: the lone warp must stop after 3 outstanding lines.
    for (Cycle t = 0; t < 1000; ++t)
        core.cycle(t);
    EXPECT_EQ(port.reads, 3u);
    EXPECT_FALSE(core.done());
    // Replies unblock it.
    port.replyOldest(core, 3);
    for (Cycle t = 1000; t < 2000; ++t)
        core.cycle(t);
    EXPECT_GT(port.reads, 3u);
}

TEST(SimtCore, StallsWhenPortRefuses)
{
    FakePort port;
    port.accepting = false;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.memFraction = 1.0;
    prof.l1HitRate = 0.0;
    SimtCore core(0, params, prof, port, 5);
    for (Cycle t = 0; t < 400; ++t)
        core.cycle(t);
    EXPECT_EQ(port.reads, 0u);
    EXPECT_GT(core.stallSlots(), 50u);
    EXPECT_EQ(core.warpInstsIssued(), 0u);
}

TEST(SimtCore, StalledInstructionIsNotRedrawn)
{
    // The decoded instruction must survive structural stalls: once the
    // port opens, the same memory instruction issues (the instruction
    // mix cannot be biased by congestion).
    FakePort port;
    port.accepting = false;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.warpInstsPerWarp = 50;
    prof.memFraction = 0.5;
    prof.l1HitRate = 0.0;
    prof.maxPendingLines = 64;
    SimtCore core(0, params, prof, port, 6);
    for (Cycle t = 0; t < 100; ++t)
        core.cycle(t);
    port.accepting = true;
    Cycle t = 100;
    while (!core.done() && t < 100000) {
        core.cycle(t++);
        port.replyOldest(core, 2);
    }
    ASSERT_TRUE(core.done());
    // With 50 insts at memFraction 0.5 expect roughly half memory.
    EXPECT_NEAR(static_cast<double>(core.memInsts()), 25.0, 12.0);
}

/** One warp whose every instruction is a one-line load that misses
 *  (the request-space check wants 2 slots per line). */
KernelProfile
loadOnlyProfile()
{
    auto prof = computeProfile();
    prof.warpsPerCore = 1;
    prof.memFraction = 1.0;
    prof.loadFraction = 1.0;
    prof.l1HitRate = 0.0;
    prof.avgLinesPerMemInst = 1.0;
    prof.maxPendingLines = 64;
    prof.writebackRate = 0.0;
    return prof;
}

TEST(SimtCoreStallMemo, PortSpaceGrowthWithoutReplyResumesIssue)
{
    FakePort port;
    port.space = 1;
    SimtCoreParams params;
    const auto prof = loadOnlyProfile();
    SimtCore core(0, params, prof, port, 8);
    for (Cycle t = 0; t < 40; ++t) // slots at t = 3, 7, ..., 39
        core.cycle(t);
    EXPECT_EQ(port.reads, 0u);
    EXPECT_EQ(core.stallSlots(), 10u);
    // More space, no reply: the very next slot must look again.
    port.space = 2;
    for (Cycle t = 40; t < 44; ++t)
        core.cycle(t);
    EXPECT_EQ(port.reads, 1u);
    EXPECT_EQ(core.stallSlots(), 10u);
}

TEST(SimtCoreStallMemo, MshrFullStallResumesAfterReply)
{
    FakePort port;
    SimtCoreParams params;
    params.mshrEntries = 2;
    auto prof = loadOnlyProfile();
    prof.warpsPerCore = 4;
    SimtCore core(0, params, prof, port, 9);
    Cycle t = 0;
    for (; t < 40; ++t)
        core.cycle(t);
    ASSERT_EQ(port.reads, 2u); // both MSHRs busy, no reply yet
    const auto stalls = core.stallSlots();
    EXPECT_EQ(stalls, 8u);
    port.replyOldest(core, 1);
    for (const Cycle end = t + 4; t < end; ++t)
        core.cycle(t);
    EXPECT_EQ(port.reads, 3u);
    EXPECT_EQ(core.stallSlots(), stalls);
}

TEST(SimtCoreStallMemo, StallSlotsCountEveryFailedSlot)
{
    // A scripted run that opens and closes the port, and answers in
    // bursts: every slot that issues nothing, memoized or not, is one
    // stall slot.
    FakePort port;
    SimtCoreParams params;
    params.mshrEntries = 8;
    auto prof = computeProfile();
    prof.memFraction = 0.6;
    prof.l1HitRate = 0.2;
    prof.maxPendingLines = 4;
    SimtCore core(0, params, prof, port, 10);
    std::uint64_t failed = 0;
    Cycle t = 0;
    for (; !core.done() && t < 200000; ++t) {
        port.accepting = (t / 64) % 3 != 0;
        port.space = 2 + static_cast<unsigned>((t / 16) % 5);
        const auto before = core.warpInstsIssued();
        core.cycle(t);
        if (t % params.issueInterval() == params.issueInterval() - 1 &&
            core.warpInstsIssued() == before)
            ++failed;
        if (t % 40 == 0)
            port.replyOldest(core, 6);
    }
    ASSERT_TRUE(core.done());
    EXPECT_GT(failed, 100u);
    EXPECT_EQ(core.stallSlots(), failed);
}

TEST(SimtCore, OccupancyLimitedByProfileWarps)
{
    FakePort port;
    SimtCoreParams params;
    auto prof = computeProfile();
    prof.warpsPerCore = 64; // clamped to maxWarps = 32
    SimtCore core(0, params, prof, port, 7);
    Cycle t = 0;
    while (!core.done() && t < 1000000)
        core.cycle(t++);
    EXPECT_EQ(core.warpInstsIssued(), 32u * 100u);
}

TEST(SimtCore, DeterministicAcrossRuns)
{
    auto run_once = [] {
        FakePort port;
        SimtCoreParams params;
        auto prof = computeProfile();
        prof.memFraction = 0.3;
        prof.l1HitRate = 0.5;
        prof.maxPendingLines = 8;
        SimtCore core(0, params, prof, port, 42);
        Cycle t = 0;
        while (!core.done() && t < 1000000) {
            core.cycle(t++);
            port.replyOldest(core, 1);
        }
        return std::tuple{t, port.reads, port.writes};
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace tenoc
