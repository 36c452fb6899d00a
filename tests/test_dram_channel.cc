/**
 * @file
 * Tests for the FR-FCFS GDDR3 channel.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hh"
#include "dram/dram_channel.hh"

namespace tenoc
{
namespace
{

DramChannelParams
params()
{
    return DramChannelParams{};
}

/** A read of `local`; the channel carries the global address through
 *  untouched, so the tests use it as the request's id. */
DramRequest
read(Addr local, std::uint64_t id)
{
    DramRequest r;
    r.localAddr = local;
    r.write = false;
    r.addr = id;
    return r;
}

DramRequest
write(Addr local, std::uint64_t id)
{
    DramRequest r = read(local, id);
    r.write = true;
    return r;
}

/** Runs the channel until `n` requests complete (popping them). */
std::vector<DramRequest>
runUntil(DramChannel &ch, unsigned n, Cycle &now, Cycle limit = 20000)
{
    std::vector<DramRequest> done;
    while (done.size() < n && now < limit) {
        ch.cycle(now);
        while (auto r = ch.popCompleted())
            done.push_back(std::move(*r));
        ++now;
    }
    return done;
}

TEST(DramChannel, SingleReadCompletes)
{
    DramChannel ch(params());
    ch.push(read(0, 1), 0);
    Cycle now = 0;
    const auto done = runUntil(ch, 1, now);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].addr, 1u);
    // ACT(0) -> CAS(12) -> data at 12+9+4 = 25.
    EXPECT_NEAR(static_cast<double>(now), 26.0, 3.0);
    EXPECT_TRUE(ch.idle());
    EXPECT_EQ(ch.rowMisses(), 1u);
}

TEST(DramChannel, RowHitsServedFasterThanMisses)
{
    // Four reads in one row vs four reads in different rows of the
    // same bank.
    DramChannel hit_ch(params());
    for (int i = 0; i < 4; ++i)
        hit_ch.push(read(static_cast<Addr>(i) * 64, i), 0);
    Cycle hit_time = 0;
    runUntil(hit_ch, 4, hit_time);
    EXPECT_EQ(hit_ch.rowHits(), 3u);

    DramChannel miss_ch(params());
    for (int i = 0; i < 4; ++i)
        miss_ch.push(read(static_cast<Addr>(i) * 2048 * 8, i), 0);
    Cycle miss_time = 0;
    runUntil(miss_ch, 4, miss_time);
    EXPECT_EQ(miss_ch.rowHits(), 0u);
    EXPECT_LT(hit_time, miss_time);
}

TEST(DramChannel, BankParallelismOverlapsActivates)
{
    // Misses to different banks overlap (tRRD apart); misses to one
    // bank serialize on tRC.
    DramChannel multi(params());
    for (int i = 0; i < 4; ++i)
        multi.push(read(static_cast<Addr>(i) * 2048, i), 0);
    Cycle multi_time = 0;
    runUntil(multi, 4, multi_time);

    DramChannel single(params());
    for (int i = 0; i < 4; ++i)
        single.push(read(static_cast<Addr>(i) * 2048 * 8, i), 0);
    Cycle single_time = 0;
    runUntil(single, 4, single_time);
    EXPECT_LT(multi_time + 20, single_time);
}

TEST(DramChannel, QueueCapacityEnforced)
{
    DramChannel ch(params());
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_TRUE(ch.canAccept());
        ch.push(read(i * 64, i), 0);
    }
    EXPECT_FALSE(ch.canAccept());
    EXPECT_EQ(ch.queueDepth(), 32u);
}

TEST(DramChannel, FrFcfsPrefersRowHitOverOlderMiss)
{
    DramChannel ch(params());
    // Oldest request: bank 0 row 0.  Then bank 0 row 1 (miss), then
    // bank 0 row 0 again (hit once the row is open).
    ch.push(read(0, 1), 0);
    ch.push(read(2048ull * 8, 2), 0); // bank 0, row 1
    ch.push(read(64, 3), 0);          // bank 0, row 0 -> hit
    Cycle now = 0;
    const auto done = runUntil(ch, 3, now);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[0].addr, 1u);
    EXPECT_EQ(done[1].addr, 3u); // out-of-order row hit first
    EXPECT_EQ(done[2].addr, 2u);
    EXPECT_GE(ch.rowHits(), 1u);
}

TEST(DramChannel, ReadWriteTurnaroundCostsTime)
{
    // Alternating reads and writes in an open row pay tRTW/tWTR.
    DramChannel rw(params());
    for (int i = 0; i < 8; ++i) {
        if (i % 2)
            rw.push(write(static_cast<Addr>(i) * 64, i), 0);
        else
            rw.push(read(static_cast<Addr>(i) * 64, i), 0);
    }
    Cycle rw_time = 0;
    runUntil(rw, 8, rw_time);

    DramChannel ro(params());
    for (int i = 0; i < 8; ++i)
        ro.push(read(static_cast<Addr>(i) * 64, i), 0);
    Cycle ro_time = 0;
    runUntil(ro, 8, ro_time);
    EXPECT_GT(rw_time, ro_time + 3 * 8); // several turnaround bubbles
}

TEST(DramChannel, ReturnBufferGatesCas)
{
    auto p = params();
    p.returnBufferCap = 2;
    DramChannel ch(p);
    for (int i = 0; i < 6; ++i)
        ch.push(read(static_cast<Addr>(i) * 64, i), 0);
    // Never pop: after two completions the channel must stop issuing.
    for (Cycle t = 0; t < 500; ++t)
        ch.cycle(t);
    EXPECT_EQ(ch.servedRequests(), 2u);
    // Popping releases the gate.
    Cycle now = 500;
    auto done = runUntil(ch, 6, now);
    EXPECT_EQ(done.size(), 6u);
}

TEST(DramChannel, EfficiencyBetweenZeroAndOne)
{
    DramChannel ch(params());
    for (int i = 0; i < 16; ++i)
        ch.push(read(static_cast<Addr>(i) * 64, i), 0);
    Cycle now = 0;
    runUntil(ch, 16, now);
    EXPECT_GT(ch.efficiency(), 0.2);
    EXPECT_LE(ch.efficiency(), 1.0);
}

TEST(DramChannel, StreamingReachesHighBusUtilization)
{
    // A long row-friendly stream should approach one line per burst.
    DramChannel ch(params());
    Cycle now = 0;
    unsigned pushed = 0;
    unsigned done_count = 0;
    while (done_count < 200 && now < 30000) {
        if (ch.canAccept() && pushed < 240) {
            ch.push(read(static_cast<Addr>(pushed) * 64, pushed), now);
            ++pushed;
        }
        ch.cycle(now);
        while (ch.popCompleted())
            ++done_count;
        ++now;
    }
    ASSERT_EQ(done_count, 200u);
    // 200 lines x 4-cycle bursts = 800 busy cycles minimum.
    const double lines_per_cycle = 200.0 / static_cast<double>(now);
    EXPECT_GT(lines_per_cycle, 0.15);
}

/** Channel-local address of 64-byte column `col` in `row` of `bank`. */
Addr
at(unsigned bank, std::uint64_t row, unsigned col = 0)
{
    const Gddr3Timing t;
    return (row * t.numBanks + bank) * t.rowBytes + col * 64ull;
}

/** Cycles `ch` through [from, to). */
void
cycleRange(DramChannel &ch, Cycle from, Cycle to)
{
    for (Cycle t = from; t < to; ++t)
        ch.cycle(t);
}

TEST(DramChannelIdleMemo, ActivateWaitsOnTrrd)
{
    DramChannel ch(params());
    ch.push(read(at(0, 0), 1), 0);
    ch.push(read(at(1, 0), 2), 0);
    cycleRange(ch, 0, 2); // ACT bank 0 at 0; bank 1 waits on tRRD
    EXPECT_EQ(ch.idleUntil(), 8u);
    for (Cycle t = 2; t < 8; ++t) {
        const FrFcfsPick p = FrFcfsScheduler::pick(ch, t);
        EXPECT_EQ(p.command, FrFcfsPick::Command::NONE) << t;
        EXPECT_FALSE(p.rowHit) << t;
    }
    cycleRange(ch, 2, 8);
    EXPECT_EQ(ch.bank(1).state(), DramBank::State::IDLE);
    ch.cycle(8);
    EXPECT_EQ(ch.bank(1).state(), DramBank::State::ACTIVE);
}

/** Opens row 0 of bank 0 at 0, serves it at 12 (last CAS data ends at
 *  12 + tCL + burst = 25) and leaves a row-1 request behind it. */
DramChannel
conflictAfterOneHit(const DramChannelParams &p)
{
    DramChannel ch(p);
    ch.push(read(at(0, 0), 1), 0);
    ch.push(read(at(0, 1), 2), 0);
    cycleRange(ch, 0, 14);
    EXPECT_EQ(ch.servedRequests(), 1u);
    return ch;
}

TEST(DramChannelIdleMemo, PrechargeWaitsOnLastCasEnd)
{
    DramChannel ch = conflictAfterOneHit(params()); // tRAS 21 < 25
    EXPECT_EQ(ch.idleUntil(), 25u);
    cycleRange(ch, 14, 25);
    EXPECT_EQ(ch.bank(0).state(), DramBank::State::ACTIVE);
    ch.cycle(25);
    EXPECT_EQ(ch.bank(0).state(), DramBank::State::IDLE);
}

TEST(DramChannelIdleMemo, PrechargeWaitsOnTras)
{
    auto p = params();
    p.timing.tRAS = 40;
    DramChannel ch = conflictAfterOneHit(p);
    EXPECT_EQ(ch.idleUntil(), 40u);
    cycleRange(ch, 14, 40);
    EXPECT_EQ(ch.bank(0).state(), DramBank::State::ACTIVE);
    ch.cycle(40);
    EXPECT_EQ(ch.bank(0).state(), DramBank::State::IDLE);
}

TEST(DramChannelIdleMemo, ActivateWaitsOnTrc)
{
    auto p = params();
    p.timing.tRC = 60; // binds over the precharge's ready cycle 25 + tRP
    DramChannel ch = conflictAfterOneHit(p);
    cycleRange(ch, 14, 27); // PRE at 25
    EXPECT_EQ(ch.idleUntil(), 60u);
    cycleRange(ch, 27, 60);
    EXPECT_EQ(ch.bank(0).state(), DramBank::State::IDLE);
    ch.cycle(60);
    EXPECT_EQ(ch.bank(0).state(), DramBank::State::ACTIVE);
    EXPECT_EQ(ch.bank(0).activeRow(), 1u);
}

TEST(DramChannelIdleMemo, PushMidSkipIsServedOnTime)
{
    auto p = params();
    p.timing.tRC = 60;
    DramChannel ch = conflictAfterOneHit(p);
    cycleRange(ch, 14, 26); // the first read retires at 25, PRE at 25
    while (ch.popCompleted()) {
    }
    cycleRange(ch, 26, 30);
    ASSERT_EQ(ch.idleUntil(), 60u);
    // Bank 2 is idle and tRRD has long passed: ACT at 30, CAS at
    // 30 + tRCD = 42, data done at 42 + tCL + burst = 55.
    ch.push(read(at(2, 0), 3), 30);
    EXPECT_EQ(ch.idleUntil(), 0u);
    Cycle done_at = 0;
    for (Cycle t = 30; t < 100 && done_at == 0; ++t) {
        ch.cycle(t);
        while (auto r = ch.popCompleted()) {
            if (r->addr == 3)
                done_at = t;
        }
    }
    EXPECT_EQ(done_at, 55u);
}

/** Pushes a random request to `ch` at `t` with probability 0.3: reads
 *  and writes over every bank, three rows and 32 columns. */
void
maybePushRandom(DramChannel &ch, Rng &rng, Cycle t, std::uint64_t &id)
{
    if (!ch.canAccept() || !rng.nextBool(0.3))
        return;
    const Addr a = at(static_cast<unsigned>(rng.nextRange(8)),
                      rng.nextRange(3),
                      static_cast<unsigned>(rng.nextRange(32)));
    ch.push(rng.nextBool(0.3) ? write(a, id) : read(a, id), t);
    ++id;
}

/** True if the channel, skipping at `s`, does what pick() would: no
 *  command, and the same row hit counted. */
::testing::AssertionResult
skipMatchesPick(const DramChannel &ch, Cycle s)
{
    const FrFcfsPick p = FrFcfsScheduler::pick(ch, s);
    if (p.command != FrFcfsPick::Command::NONE)
        return ::testing::AssertionFailure() << "a command is legal";
    if (p.rowHit != ch.idleRowHit())
        return ::testing::AssertionFailure() << "another row hit";
    return ::testing::AssertionSuccess();
}

/**
 * Seeded random read/write streams over mixed banks and rows, with a
 * two-entry read-out buffer drained at random so it is often full.
 * Whenever a cycle arms the idle memo, the pick at every cycle below
 * the bound must be the armed one (no command, the same row hit or
 * none) and must differ at the bound itself; a skipped cycle's pick
 * must be the armed one too.
 */
TEST(DramChannelIdleMemo, BoundHoldsOnRandomStreams)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        auto p = params();
        p.returnBufferCap = 2;
        DramChannel ch(p);
        Rng rng(seed);
        std::uint64_t id = 0;
        unsigned armed = 0;
        unsigned armed_hits = 0;
        unsigned skipped = 0;
        for (Cycle t = 0; t < 3000; ++t) {
            maybePushRandom(ch, rng, t, id);
            if (t < ch.idleUntil()) {
                ++skipped;
                EXPECT_TRUE(skipMatchesPick(ch, t)) << t;
            }
            ch.cycle(t);
            const Cycle bound = ch.idleUntil();
            if (bound > t + 1) {
                ++armed;
                if (ch.idleRowHit())
                    ++armed_hits;
                const Cycle last = std::min<Cycle>(bound, t + 200);
                for (Cycle s = t + 1; s < last; ++s)
                    ASSERT_TRUE(skipMatchesPick(ch, s))
                        << "armed at " << t << " until " << bound
                        << ", pick changed at " << s;
                if (bound != INVALID_CYCLE) {
                    EXPECT_FALSE(skipMatchesPick(ch, bound))
                        << "armed at " << t << " until " << bound;
                }
            }
            if (rng.nextBool(0.4))
                ch.popCompleted();
        }
        EXPECT_GT(armed, 50u);
        EXPECT_GT(armed_hits, 20u);
        EXPECT_GT(skipped, 100u);
        EXPECT_GT(ch.schedStats().blockedByReturnBuffer.value(), 100u);
        EXPECT_GT(ch.servedRequests(), 300u);
        EXPECT_GT(ch.rowMisses(), 50u);
    }
}

/**
 * The channel's row_hit_picks and reorder_depth, kept partly by the
 * idle memo on skipped cycles, equal a reference that runs the
 * side-effect-free pick() on every cycle.  Validation is on, so the
 * masks are audited every cycle as well.
 */
TEST(DramChannelIdleMemo, StatsMatchPerCycleReference)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        auto p = params();
        p.returnBufferCap = 2;
        DramChannel ch(p);
        ch.setValidate(true, 0);
        Rng rng(seed + 100);
        std::uint64_t id = 0;
        std::uint64_t picks = 0;
        Accumulator depth;
        unsigned skipped_hits = 0;
        for (Cycle t = 0; t < 3000; ++t) {
            maybePushRandom(ch, rng, t, id);
            // Retiring bursts at the top of cycle() leaves the banks,
            // the queue and the read-out buffer's occupancy alone, so
            // the pick before the cycle is the pick within it.
            const FrFcfsPick ref = FrFcfsScheduler::pick(ch, t);
            if (ref.rowHit) {
                ++picks;
                depth.sample(static_cast<double>(*ref.rowHit));
                if (t < ch.idleUntil())
                    ++skipped_hits;
            }
            ch.cycle(t);
            if (rng.nextBool(0.4))
                ch.popCompleted();
        }
        const FrFcfsStats &st = ch.schedStats();
        EXPECT_EQ(st.rowHitPicks.value(), picks);
        EXPECT_EQ(st.reorderDepth.count(), depth.count());
        EXPECT_EQ(st.reorderDepth.sum(), depth.sum());
        EXPECT_EQ(st.reorderDepth.min(), depth.min());
        EXPECT_EQ(st.reorderDepth.max(), depth.max());
        EXPECT_GT(skipped_hits, 50u);
        EXPECT_GT(depth.max(), 0.0);
    }
}

TEST(DramChannelDeath, OverflowPanics)
{
    DramChannel ch(params());
    for (unsigned i = 0; i < 32; ++i)
        ch.push(read(i * 64, i), 0);
    EXPECT_DEATH(ch.push(read(0x8000, 99), 0), "overflow");
}

TEST(DramChannelDeath, ValidationCatchesCorruptHitMask)
{
    DramChannel ch(params());
    ch.setValidate(true, 3);
    ch.push(read(at(0, 0), 1), 0);
    ch.push(read(at(0, 0, 1), 2), 0);
    cycleRange(ch, 0, 5); // ACT at 0: both requests hit row 0
    ch.cycle(5);          // the audit passes on intact masks
    ch.flipHitMaskBitForTest(0, 1);
    EXPECT_DEATH(ch.cycle(6), "DRAM channel 3 bank 0 masks disagree with "
                              "the queue at mem cycle 6");
}

TEST(DramChannelDeath, QueueCapacityAboveMaskWidthPanics)
{
    auto p = params();
    p.queueCapacity = DramChannel::MAX_QUEUE + 1;
    EXPECT_DEATH(DramChannel ch(p), "queue capacity");
}

} // namespace
} // namespace tenoc
