/**
 * @file
 * Tests for the sweep runner (bench/sweep.hh), the simulator's only
 * parallelism: results come back in index order, TENOC_THREADS=1 runs
 * sequentially on the caller, an exception from one point is rethrown
 * only after every worker has joined, and malformed TENOC_THREADS
 * values warn and fall back to the hardware thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "scoped_env.hh"
#include "sweep.hh"

namespace tenoc
{
namespace
{

using bench::sweepMap;
using bench::sweepThreads;

unsigned
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

TEST(SweepMap, ResultsComeBackInIndexOrder)
{
    ScopedEnv env("TENOC_THREADS", "4");
    constexpr std::size_t N = 64;
    const auto out = sweepMap(N, [](std::size_t i) {
        // Early points sleep longest, so workers finish out of order.
        std::this_thread::sleep_for(std::chrono::microseconds(N - i));
        return i * i;
    });
    ASSERT_EQ(out.size(), N);
    for (std::size_t i = 0; i < N; ++i)
        EXPECT_EQ(out[i], i * i) << i;
}

TEST(SweepMap, SingleThreadRunsSequentiallyOnCaller)
{
    ScopedEnv env("TENOC_THREADS", "1");
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    const auto out = sweepMap(16, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
        return static_cast<int>(i) + 1;
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(out[i], static_cast<int>(i) + 1);
    }
}

TEST(SweepMap, RethrowsAfterEveryWorkerJoins)
{
    ScopedEnv env("TENOC_THREADS", "4");
    std::atomic<int> running{0};
    auto sweep = [&] {
        sweepMap(32, [&](std::size_t i) {
            ++running;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            --running;
            if (i == 5)
                throw std::runtime_error("point 5 failed");
            return i;
        });
    };
    EXPECT_THROW(sweep(), std::runtime_error);
    // No worker may still be inside a point once the error surfaces.
    EXPECT_EQ(running.load(), 0);
}

TEST(SweepThreads, MalformedValuesWarnAndFallBack)
{
    for (const char *bad : {"0", "2x", ""}) {
        ScopedEnv env("TENOC_THREADS", bad);
        const auto warned = warnCount();
        EXPECT_EQ(sweepThreads(), hardwareThreads()) << "'" << bad << "'";
        EXPECT_GT(warnCount(), warned) << "'" << bad << "'";
    }
    ScopedEnv env("TENOC_THREADS", "3");
    const auto warned = warnCount();
    EXPECT_EQ(sweepThreads(), 3u);
    EXPECT_EQ(warnCount(), warned);
}

} // namespace
} // namespace tenoc
