/**
 * @file
 * Cache implementation.
 */

#include "cache/cache.hh"

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng_(seed)
{
    tenoc_assert(isPow2(params_.lineBytes), "line size must be pow2");
    tenoc_assert(params_.ways >= 1, "need at least one way");
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    tenoc_assert(lines % params_.ways == 0,
                 "size/line/ways geometry mismatch");
    num_sets_ = static_cast<unsigned>(lines / params_.ways);
    tenoc_assert(isPow2(num_sets_), "set count must be pow2");
    tenoc_assert(params_.profileHitRate >= 0.0 &&
                 params_.profileHitRate <= 1.0,
                 "profile hit rate out of range");
}

CacheAccessResult
Cache::access(Addr addr)
{
    CacheAccessResult res;
    res.hit = rng_.nextBool(params_.profileHitRate);
    if (res.hit) {
        ++hits_;
    } else {
        ++misses_;
        if (rng_.nextBool(params_.profileWritebackRate)) {
            // Synthesize a victim in the same set region so the
            // writeback address stream stays plausible.
            res.writeback = lineAddr(addr) ^
                (static_cast<Addr>(num_sets_) * params_.lineBytes);
        }
    }
    return res;
}

void
Cache::save(SnapshotWriter &w) const
{
    w.tag("CACH");
    const auto st = rng_.state();
    for (const std::uint64_t s : st)
        w.u64(s);
    w.u64(hits_);
    w.u64(misses_);
}

void
Cache::restore(SnapshotReader &r)
{
    r.tag("CACH");
    std::array<std::uint64_t, 4> st;
    for (std::uint64_t &s : st)
        s = r.u64();
    rng_.setState(st);
    hits_ = r.u64();
    misses_ = r.u64();
}

} // namespace tenoc
