/**
 * @file
 * Miss-status holding registers (64 per core, Table II).
 *
 * Tracks outstanding line refills; accesses to an already-pending line
 * merge onto the existing entry instead of issuing another request.
 * A full table stalls the core's memory stage (the closed-loop
 * self-throttling the paper's simulations rely on).
 *
 * The table is flat: an open-addressed index (linear probing, twice
 * the capacity rounded to a power of two) maps a line to its entry,
 * and each entry's waiters form a FIFO list in a shared node pool.
 * Entries and nodes are recycled through free lists, and their arrays
 * grow only when the number of pending lines or merged waiters
 * reaches a new high-water mark, so lookup is O(1) and steady-state
 * allocate() and release() allocate no memory.  Nothing is reserved
 * up front: a lightly loaded core keeps its footprint small.
 */

#ifndef TENOC_CACHE_MSHR_HH
#define TENOC_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace tenoc
{

class SnapshotWriter;
class SnapshotReader;

/** MSHR table keyed by line address. */
class MshrTable
{
  public:
    /**
     * @param entries maximum outstanding distinct lines
     * @param max_merged maximum accesses merged per entry
     */
    explicit MshrTable(unsigned entries, unsigned max_merged = 32);

    unsigned capacity() const { return entries_; }
    std::size_t size() const { return size_; }
    bool full() const { return size_ >= entries_; }

    /** @return true if a refill for this line is already pending. */
    bool pending(Addr line) const { return index_[find(line)] != 0; }

    /**
     * @return true if a new access for `line` can be tracked (either a
     * fresh entry is available or the existing entry can merge).
     */
    bool canAllocate(Addr line) const;

    /**
     * Records an access waiting on `line` with opaque `waiter`.
     * @return true if this allocated a NEW entry (i.e. a request must
     * be sent); false if merged onto an existing one.
     */
    bool allocate(Addr line, std::uint64_t waiter);

    /**
     * Completes the refill of `line`: removes its entry, then calls
     * `visit(waiter)` for every merged waiter in allocation order.
     */
    template <typename Visit>
    void
    release(Addr line, Visit &&visit)
    {
        for (std::uint32_t n = detach(line); n != NONE;) {
            visit(pool_[n].waiter);
            const std::uint32_t next = pool_[n].next;
            pool_[n].next = free_node_;
            free_node_ = n;
            n = next;
        }
    }

    /** Merged-access count for a pending line. */
    std::size_t waiters(Addr line) const;

    /** Serializes pending entries (sorted by line address so blobs
     *  are independent of the table's layout) and counters. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r);

    // --- stats ---
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t merges() const { return merges_; }

  private:
    static constexpr std::uint32_t NONE = ~std::uint32_t{0};

    /** One pending line, or (in the free list) the next free entry
     *  in `head`. */
    struct Entry
    {
        Addr line = 0;
        std::uint32_t head = NONE; ///< oldest waiter's pool node
        std::uint32_t tail = NONE; ///< youngest waiter's pool node
        std::uint32_t count = 0;   ///< merged waiters
    };

    /** One waiter in an entry's FIFO list, or a free pool node. */
    struct WaiterNode
    {
        std::uint64_t waiter = 0;
        std::uint32_t next = NONE;
    };

    /** @return the first index slot of `line`'s probe sequence. */
    std::size_t home(Addr line) const;

    /** @return the index slot holding `line`, or the empty slot that
     *  ends its probe sequence. */
    std::size_t find(Addr line) const;

    /** Removes `line`'s entry (fatal if absent), leaving its waiter
     *  list to the caller.  @return the list's head node. */
    std::uint32_t detach(Addr line);

    unsigned entries_;
    unsigned max_merged_;
    /** Index slot -> entry id + 1 (0 = empty slot). */
    std::vector<std::uint16_t> index_;
    std::size_t mask_ = 0;  ///< index_.size() - 1
    std::size_t size_ = 0;  ///< pending lines
    std::vector<Entry> table_;
    std::uint32_t free_entry_ = NONE;
    /** Waiter nodes, threaded by `next` through the lists and the
     *  free list. */
    std::vector<WaiterNode> pool_;
    std::uint32_t free_node_ = NONE;
    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
};

} // namespace tenoc

#endif // TENOC_CACHE_MSHR_HH
