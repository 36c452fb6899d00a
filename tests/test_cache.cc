/**
 * @file
 * Tests for the profile-locality cache.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace tenoc
{
namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 16 lines
    p.lineBytes = 64;
    p.ways = 4;         // 4 sets
    return p;
}

TEST(Cache, GeometryComputed)
{
    Cache c(smallCache());
    EXPECT_EQ(c.numSets(), 4u);
    EXPECT_EQ(c.lineAddr(0x12345), 0x12340ull & ~0x3full);
}

TEST(Cache, DirtyEvictionReturnsVictimAddress)
{
    // Every access misses and evicts a dirty line: the victim is the
    // access's line with the first tag bit flipped (same set).
    CacheParams p = smallCache();
    p.profileWritebackRate = 1.0;
    Cache c(p);
    const auto wb = c.access(0x1234);
    EXPECT_FALSE(wb.hit);
    ASSERT_TRUE(wb.writeback.has_value());
    EXPECT_EQ(*wb.writeback, 0x1200u ^ (4u * 64u));
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(smallCache());
    for (Addr i = 0; i < 100; ++i) {
        const auto r = c.access(i * 256);
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.writeback.has_value());
    }
    EXPECT_EQ(c.misses(), 100u);
}

TEST(Cache, ProfileModeMatchesHitRate)
{
    CacheParams p = smallCache();
    p.profileHitRate = 0.7;
    p.profileWritebackRate = 0.5;
    Cache c(p, 42);
    unsigned hits = 0;
    unsigned wbs = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto r = c.access(static_cast<Addr>(i) * 64);
        hits += r.hit;
        wbs += r.writeback.has_value();
    }
    EXPECT_NEAR(hits / double(n), 0.7, 0.02);
    // Writebacks occur on half the misses.
    EXPECT_NEAR(wbs / double(n), 0.3 * 0.5, 0.02);
    EXPECT_NEAR(c.hitRate(), 0.7, 0.02);
}

TEST(CacheDeath, BadGeometryPanics)
{
    CacheParams p;
    p.sizeBytes = 1000; // not a power-of-two line multiple
    p.lineBytes = 48;
    EXPECT_DEATH({ Cache c(p); }, "pow2");
}

/** Parameterized sweep over Table II geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 unsigned, unsigned>>
{};

TEST_P(CacheGeometry, VictimStaysInItsSet)
{
    auto [size, line, ways] = GetParam();
    CacheParams p;
    p.sizeBytes = size;
    p.lineBytes = line;
    p.ways = ways;
    p.profileWritebackRate = 1.0;
    Cache c(p);
    const std::uint64_t sets = size / line / ways;
    EXPECT_EQ(c.numSets(), sets);
    for (Addr a = 0; a < 4 * size; a += line / 2 + 8) {
        const auto r = c.access(a);
        ASSERT_TRUE(r.writeback.has_value());
        const Addr victim = *r.writeback;
        EXPECT_EQ(victim % line, 0u);
        EXPECT_NE(victim, c.lineAddr(a));
        EXPECT_EQ(victim / line % sets, a / line % sets);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::tuple{16ull * 1024, 64u, 4u},   // L1
                      std::tuple{128ull * 1024, 64u, 8u},  // L2 bank
                      std::tuple{8ull * 1024, 64u, 2u},
                      std::tuple{4ull * 1024, 128u, 4u},
                      std::tuple{1ull * 1024, 64u, 16u})); // fully assoc

} // namespace
} // namespace tenoc
