/**
 * @file
 * Freelist object pools for hot-path allocation.
 *
 * FreeListPool hands out raw objects from chunked storage and recycles
 * them through a freelist, so steady-state simulation performs no heap
 * allocation per object.  It is deliberately NOT thread-safe: pools
 * are accessed through thread_local instances and an object's
 * refcount is only ever touched by one thread at a time.  Each
 * parallel-sweep worker (bench/sweep.hh) owns its simulations end to
 * end and runs their cycles serially, which upholds that.  An object
 * allocated from one thread's pool must never be *freed* on another.
 */

#ifndef TENOC_COMMON_POOL_HH
#define TENOC_COMMON_POOL_HH

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/log.hh"

namespace tenoc
{

/**
 * Chunked freelist pool.  allocate() returns an object in an
 * unspecified state (freshly default-constructed for new chunks,
 * last-released state for recycled ones); callers reset fields
 * themselves.  release() must only be called with pointers obtained
 * from the same pool.
 *
 * In validate mode (setValidate) the pool mirrors the freelist in a
 * hash set and makes releasing an already-free object a hard error
 * instead of silently corrupting the freelist (the same object would
 * be handed out twice and aliased).  Off by default: the hot path pays
 * only one branch.
 */
template <typename T>
class FreeListPool
{
  public:
    explicit FreeListPool(std::size_t chunk_objects = 256)
        : chunk_objects_(chunk_objects ? chunk_objects : 1)
    {}

    FreeListPool(const FreeListPool &) = delete;
    FreeListPool &operator=(const FreeListPool &) = delete;

    /** Takes an object from the freelist, growing storage if empty. */
    T *
    allocate()
    {
        if (bypass_) {
            ++bypass_live_;
            return new T();
        }
        if (free_.empty())
            grow();
        T *obj = free_.back();
        free_.pop_back();
        if (validate_)
            free_set_.erase(obj);
        return obj;
    }

    /** Returns an object to the freelist for reuse. */
    void
    release(T *obj)
    {
        if (bypass_) {
            tenoc_assert(bypass_live_ > 0,
                         "pool bypass release without allocation");
            --bypass_live_;
            delete obj;
            return;
        }
        if (validate_ && !free_set_.insert(obj).second) {
            tenoc_panic("pool double-release: object ", obj,
                        " is already on the freelist");
        }
        free_.push_back(obj);
    }

    /**
     * Routes allocate()/release() through plain new/delete instead of
     * the freelist.  The reference allocator for pooled-vs-heap
     * bit-identity checks (the recycled-state fast path must never be
     * behavioural).  May only be toggled while no objects are live:
     * an object must be released by the same mechanism that produced
     * it.
     */
    void
    setBypass(bool on)
    {
        if (on == bypass_)
            return;
        tenoc_assert(liveObjects() == 0 && bypass_live_ == 0,
                     "pool bypass toggled with live objects");
        bypass_ = on;
    }

    /** @return true while the heap-bypass reference mode is active. */
    bool bypassed() const { return bypass_; }

    /**
     * Enables (or disables) double-release checking.  Turning it on
     * mid-life rebuilds the shadow set from the current freelist.
     */
    void
    setValidate(bool on)
    {
        validate_ = on;
        free_set_.clear();
        if (on)
            free_set_.insert(free_.begin(), free_.end());
    }

    /** @return true while double-release checking is enabled. */
    bool validating() const { return validate_; }

    /** Objects currently live (allocated and not yet released). */
    std::size_t
    liveObjects() const
    {
        return chunks_.size() * chunk_objects_ - free_.size();
    }

    /** Total objects ever materialized (capacity high-water mark). */
    std::size_t capacity() const { return chunks_.size() * chunk_objects_; }

  private:
    void
    grow()
    {
        chunks_.push_back(std::make_unique<T[]>(chunk_objects_));
        T *base = chunks_.back().get();
        free_.reserve(free_.size() + chunk_objects_);
        for (std::size_t i = 0; i < chunk_objects_; ++i) {
            free_.push_back(base + i);
            if (validate_)
                free_set_.insert(base + i);
        }
    }

    std::size_t chunk_objects_;
    std::vector<std::unique_ptr<T[]>> chunks_;
    std::vector<T *> free_;
    bool bypass_ = false;
    /** Objects handed out by the bypass path and not yet released. */
    std::size_t bypass_live_ = 0;
    bool validate_ = false;
    /** Shadow of `free_` for double-release detection (validate mode). */
    std::unordered_set<T *> free_set_;
};

} // namespace tenoc

#endif // TENOC_COMMON_POOL_HH
