/**
 * @file
 * Parallel sweep runner for the figure/table harnesses.
 *
 * Every harness evaluates many independent (configuration, workload)
 * or (configuration, injection-rate) points; each point is a complete,
 * self-contained simulation with its own seeded RNG, so the points can
 * run concurrently without changing any result.  sweepMap() fans the
 * points out over a small thread pool and returns the results indexed
 * by point, so output ordering is deterministic and identical to the
 * sequential loop it replaces.
 *
 * Thread-safety notes (why concurrent points are safe):
 *   - every simulation object (Chip, MeshNetwork, Rng) is built inside
 *     the worker that runs it; nothing is shared between points,
 *   - the packet pool is thread_local (see src/common/pool.hh), and a
 *     point runs start-to-finish on one worker thread,
 *   - the only shared statics in the simulator are C++ magic statics
 *     (workload tables, config tables), which are initialization-safe.
 *
 * TENOC_THREADS overrides the worker count (default: hardware
 * concurrency); TENOC_THREADS=1 gives the exact sequential execution.
 *
 * This is the simulator's only parallelism: each simulation runs its
 * cycles serially on the worker that built it.
 */

#ifndef TENOC_BENCH_SWEEP_HH
#define TENOC_BENCH_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace tenoc::bench
{

/** Worker count: TENOC_THREADS env override, else hardware threads.
 *  Malformed values (non-numeric, trailing junk, < 1) are rejected
 *  with a warning rather than silently parsed as 0. */
inline unsigned
sweepThreads()
{
    if (const char *env = std::getenv("TENOC_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || v < 1) {
            warn("ignoring invalid TENOC_THREADS='", env,
                 "' (want a positive integer)");
        } else {
            return static_cast<unsigned>(v);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Evaluates fn(0..n-1) over a thread pool and returns the results in
 * index order.  fn's result type must be default-constructible (it is
 * placed into a pre-sized vector).  The first exception thrown by any
 * point is rethrown here after all workers have stopped.
 */
template <typename Fn>
auto
sweepMap(std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using Result = decltype(fn(std::size_t{0}));
    std::vector<Result> out(n);
    if (n == 0)
        return out;
    const std::size_t workers =
        std::min<std::size_t>(sweepThreads(), n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = fn(i);
        return out;
    }

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    auto work = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                out[i] = fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mu);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(work);
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return out;
}

} // namespace tenoc::bench

#endif // TENOC_BENCH_SWEEP_HH
