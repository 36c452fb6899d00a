/**
 * @file
 * Tests for the MSHR table.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/mshr.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"

namespace tenoc
{
namespace
{

/** Releases `line` and collects its waiters in visit order. */
std::vector<std::uint64_t>
releaseAll(MshrTable &m, Addr line)
{
    std::vector<std::uint64_t> out;
    m.release(line, [&](std::uint64_t w) { out.push_back(w); });
    return out;
}

TEST(Mshr, AllocateNewEntrySendsRequest)
{
    MshrTable m(4);
    EXPECT_TRUE(m.allocate(0x100, 1));
    EXPECT_TRUE(m.pending(0x100));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.allocations(), 1u);
}

TEST(Mshr, MergeDoesNotSendRequest)
{
    MshrTable m(4);
    EXPECT_TRUE(m.allocate(0x100, 1));
    EXPECT_FALSE(m.allocate(0x100, 2));
    EXPECT_FALSE(m.allocate(0x100, 3));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.merges(), 2u);
    EXPECT_EQ(m.waiters(0x100), 3u);
}

TEST(Mshr, ReleaseReturnsAllWaitersInOrder)
{
    MshrTable m(4);
    m.allocate(0x40, 10);
    m.allocate(0x40, 20);
    const auto waiters = releaseAll(m, 0x40);
    ASSERT_EQ(waiters.size(), 2u);
    EXPECT_EQ(waiters[0], 10u);
    EXPECT_EQ(waiters[1], 20u);
    EXPECT_FALSE(m.pending(0x40));
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, FullTableRefusesNewLines)
{
    MshrTable m(2);
    m.allocate(0x0, 1);
    m.allocate(0x40, 2);
    EXPECT_TRUE(m.full());
    EXPECT_FALSE(m.canAllocate(0x80));
    EXPECT_TRUE(m.canAllocate(0x0)); // merge still allowed
    releaseAll(m, 0x0);
    EXPECT_TRUE(m.canAllocate(0x80));
}

TEST(Mshr, MergeLimitEnforced)
{
    MshrTable m(4, 2);
    m.allocate(0x0, 1);
    m.allocate(0x0, 2);
    EXPECT_FALSE(m.canAllocate(0x0));
}

TEST(Mshr, CapacityMatchesTableII)
{
    MshrTable m(64); // 64 MSHRs per core
    for (Addr i = 0; i < 64; ++i)
        EXPECT_TRUE(m.allocate(i * 64, i));
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.capacity(), 64u);
}

/**
 * Random allocate / merge / release / save-restore sequences against a
 * map of waiter lists.  Lines come from a small pool of colliding
 * addresses (all multiples of 64, several sharing a probe run), so
 * releases exercise the table's backward-shift deletion.
 */
TEST(Mshr, RandomOpsMatchReferenceMap)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        const unsigned entries = 8 + static_cast<unsigned>(seed % 3) * 28;
        MshrTable m(entries, 4);
        std::map<Addr, std::vector<std::uint64_t>> ref;
        Rng rng(seed);
        std::uint64_t next_waiter = 0;
        unsigned releases = 0;
        unsigned restores = 0;
        for (unsigned step = 0; step < 4000; ++step) {
            const Addr line = rng.nextRange(3 * entries) * 64;
            const auto it = ref.find(line);
            const double op = rng.nextDouble();
            if (op < 0.55) {
                const bool fits = it != ref.end()
                    ? it->second.size() < 4 : ref.size() < entries;
                ASSERT_EQ(m.canAllocate(line), fits) << step;
                if (fits) {
                    EXPECT_EQ(m.allocate(line, next_waiter),
                              it == ref.end());
                    ref[line].push_back(next_waiter++);
                }
            } else if (op < 0.95) {
                if (ref.empty())
                    continue;
                // Release a random pending line.
                auto victim = ref.begin();
                std::advance(victim, rng.nextRange(ref.size()));
                ASSERT_EQ(releaseAll(m, victim->first), victim->second)
                    << step;
                ref.erase(victim);
                ++releases;
            } else {
                // Restore into a fresh table (the same bytes must
                // come back out) and into this one.
                SnapshotWriter w;
                m.save(w);
                MshrTable copy(entries, 4);
                SnapshotReader fresh(w.data());
                copy.restore(fresh);
                SnapshotWriter again;
                copy.save(again);
                EXPECT_EQ(again.data(), w.data());
                SnapshotReader r(w.data());
                m.restore(r);
                EXPECT_TRUE(r.exhausted());
                ++restores;
            }
            ASSERT_EQ(m.size(), ref.size()) << step;
            EXPECT_EQ(m.full(), ref.size() >= entries);
            for (Addr probe = 0; probe < 3 * entries * 64; probe += 64) {
                const auto found = ref.find(probe);
                ASSERT_EQ(m.pending(probe), found != ref.end())
                    << step << " line " << probe;
                ASSERT_EQ(m.waiters(probe),
                          found == ref.end() ? 0 : found->second.size());
            }
        }
        EXPECT_GT(releases, 1000u);
        EXPECT_GT(restores, 100u);
    }
}

TEST(MshrDeath, ReleaseUnknownLinePanics)
{
    MshrTable m(4);
    EXPECT_DEATH(releaseAll(m, 0xdead), "unknown MSHR line");
}

TEST(MshrDeath, OverflowPanics)
{
    MshrTable m(1);
    m.allocate(0x0, 1);
    EXPECT_DEATH(m.allocate(0x40, 2), "overflow");
}

} // namespace
} // namespace tenoc
