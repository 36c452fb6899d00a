/**
 * @file
 * MshrTable implementation.
 */

#include "cache/mshr.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

MshrTable::MshrTable(unsigned entries, unsigned max_merged)
    : entries_(entries), max_merged_(max_merged)
{
    tenoc_assert(entries_ >= 1 && entries_ < 0xffff && max_merged_ >= 1,
                 "bad MSHR geometry");
    index_.resize(std::bit_ceil(2 * static_cast<std::size_t>(entries_)));
    mask_ = index_.size() - 1;
}

std::size_t
MshrTable::home(Addr line) const
{
    // Fibonacci hashing spreads line-aligned addresses over the slots.
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >> 32) &
        mask_;
}

std::size_t
MshrTable::find(Addr line) const
{
    std::size_t i = home(line);
    while (index_[i] != 0 && table_[index_[i] - 1].line != line)
        i = (i + 1) & mask_;
    return i;
}

bool
MshrTable::canAllocate(Addr line) const
{
    const std::uint16_t id = index_[find(line)];
    if (id != 0)
        return table_[id - 1].count < max_merged_;
    return size_ < entries_;
}

std::size_t
MshrTable::waiters(Addr line) const
{
    const std::uint16_t id = index_[find(line)];
    return id == 0 ? 0 : table_[id - 1].count;
}

bool
MshrTable::allocate(Addr line, std::uint64_t waiter)
{
    const std::size_t slot = find(line);
    const bool fresh = index_[slot] == 0;
    if (fresh) {
        tenoc_assert(size_ < entries_, "MSHR table overflow");
        std::uint32_t id = free_entry_;
        if (id != NONE) {
            free_entry_ = table_[id].head;
        } else {
            id = static_cast<std::uint32_t>(table_.size());
            table_.emplace_back();
        }
        table_[id] = Entry{line, NONE, NONE, 0};
        index_[slot] = static_cast<std::uint16_t>(id + 1);
        ++size_;
        ++allocations_;
    } else {
        tenoc_assert(table_[index_[slot] - 1].count < max_merged_,
                     "MSHR merge overflow");
        ++merges_;
    }
    std::uint32_t n = free_node_;
    if (n != NONE) {
        free_node_ = pool_[n].next;
    } else {
        n = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    }
    pool_[n] = WaiterNode{waiter, NONE};
    Entry &e = table_[index_[slot] - 1];
    if (fresh)
        e.head = n;
    else
        pool_[e.tail].next = n;
    e.tail = n;
    ++e.count;
    return fresh;
}

std::uint32_t
MshrTable::detach(Addr line)
{
    std::size_t hole = find(line);
    tenoc_assert(index_[hole] != 0, "release of unknown MSHR line");
    const std::uint32_t id = index_[hole] - 1u;
    const std::uint32_t head = table_[id].head;
    table_[id].head = free_entry_;
    free_entry_ = id;
    index_[hole] = 0;
    --size_;
    // Backward-shift deletion: move each later member of the probe
    // run whose home slot is not past the hole (cyclically) into the
    // hole, so every probe sequence stays unbroken.
    for (std::size_t i = (hole + 1) & mask_; index_[i] != 0;
         i = (i + 1) & mask_) {
        const std::size_t h = home(table_[index_[i] - 1].line);
        if (((i - h) & mask_) >= ((i - hole) & mask_)) {
            index_[hole] = index_[i];
            index_[i] = 0;
            hole = i;
        }
    }
    return head;
}

void
MshrTable::save(SnapshotWriter &w) const
{
    w.tag("MSHR");
    std::vector<const Entry *> live;
    live.reserve(size_);
    for (const std::uint16_t id : index_)
        if (id != 0)
            live.push_back(&table_[id - 1]);
    std::sort(live.begin(), live.end(),
              [](const Entry *a, const Entry *b) { return a->line < b->line; });
    w.u64(live.size());
    for (const Entry *e : live) {
        w.u64(e->line);
        w.u64(e->count);
        for (std::uint32_t n = e->head; n != NONE; n = pool_[n].next)
            w.u64(pool_[n].waiter);
    }
    w.u64(allocations_);
    w.u64(merges_);
}

void
MshrTable::restore(SnapshotReader &r)
{
    r.tag("MSHR");
    std::fill(index_.begin(), index_.end(), 0);
    size_ = 0;
    table_.clear();
    free_entry_ = NONE;
    pool_.clear();
    free_node_ = NONE;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr line = r.u64();
        const std::uint64_t m = r.u64();
        tenoc_assert(m >= 1, "MSHR entry without waiters in snapshot");
        for (std::uint64_t j = 0; j < m; ++j)
            allocate(line, r.u64());
    }
    allocations_ = r.u64();
    merges_ = r.u64();
}

} // namespace tenoc
