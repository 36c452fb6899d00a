/**
 * @file
 * Pipelined point-to-point channels.
 *
 * A Channel models a wire with a fixed latency in interconnect cycles:
 * items pushed at cycle t become visible to the receiver at cycle
 * t + latency.  Both flit channels and reverse credit channels use the
 * same primitive.
 */

#ifndef TENOC_NOC_CHANNEL_HH
#define TENOC_NOC_CHANNEL_HH

#include <optional>
#include <utility>

#include "common/log.hh"
#include "common/ring.hh"
#include "common/snapshot.hh"
#include "common/types.hh"
#include "noc/arrival.hh"

namespace tenoc
{

/**
 * FIFO channel with delivery latency.  At most one item may be pushed
 * per cycle (enforced); receivers poll with receive(now).
 *
 * In-flight items live in an inline-storage ring (common/ring.hh): a
 * steady-state channel (population bounded by its latency) touches no
 * heap at all.  The ring makes channels non-copyable; networks store
 * them by value in a std::deque, which constructs in place and never
 * relocates.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(Cycle latency = 1) : latency_(latency) {}

    Cycle latency() const { return latency_; }

    /**
     * Registers the receiver with its network's arrival scheduler:
     * each send posts a wake at the delivery cycle (setting `bit` in
     * the receiver's pending-port word), so an idle receiver sleeps
     * until the item actually arrives.  Every channel inside a network
     * is registered; a standalone channel (unit tests) posts nothing.
     */
    void
    setArrivalTarget(ArrivalScheduler *sched, unsigned index,
                     std::uint32_t bit)
    {
        sched_ = sched;
        sched_idx_ = index;
        sched_bit_ = bit;
    }

    /** Sends an item at cycle `now`; it arrives at now + latency. */
    void
    send(T item, Cycle now)
    {
        tenoc_assert(last_send_ == INVALID_CYCLE || now > last_send_,
                     "channel accepts at most one item per cycle");
        last_send_ = now;
        queue_.emplace_back(Entry{now + latency_, std::move(item)});
        if (sched_)
            sched_->schedule(now + latency_, sched_idx_, sched_bit_);
    }

    /** @return the next item if it has arrived by cycle `now`. */
    std::optional<T>
    receive(Cycle now)
    {
        if (stalled_ || queue_.empty() || queue_.front().arrival > now)
            return std::nullopt;
        T item = std::move(queue_.front().item);
        queue_.pop_front();
        return item;
    }

    /**
     * Fault hook: while stalled the channel delivers nothing (items
     * keep accumulating and arrive in a burst once the stall clears,
     * like a repaired wire).  Clearing a stall wakes the receiver so
     * idle-skip scheduling picks the backlog up.
     */
    void
    setStalled(bool stalled)
    {
        stalled_ = stalled;
        // The backlog may already be matured (its wheel wakes fired
        // into a stalled channel and were consumed), so set the
        // pending bit now rather than wait for a wheel slot that will
        // never fire again.
        if (!stalled && !queue_.empty() && sched_)
            sched_->wakeNow(sched_idx_, sched_bit_);
    }

    /** @return true while a link-stall fault is active. */
    bool stalled() const { return stalled_; }

    /** Calls f(item) for every in-flight item, oldest first. */
    template <typename F>
    void
    forEachInFlight(F &&f) const
    {
        queue_.forEach([&](const Entry &e) { f(e.item); });
    }

    /** @return true if no items are in flight. */
    bool empty() const { return queue_.empty(); }

    /** Number of items in flight. */
    std::size_t inFlight() const { return queue_.size(); }

    /** Delivery cycle of the earliest in-flight item (the channel is
     *  FIFO with constant latency, so the front is the earliest);
     *  INVALID_CYCLE when empty. */
    Cycle
    earliestArrival() const
    {
        return queue_.empty() ? INVALID_CYCLE : queue_.front().arrival;
    }

    /**
     * Restore-path helper: re-posts one scheduler wake per in-flight
     * item (the entries live in the wheel, which is not serialized —
     * it is rebuilt from the channels' arrival cycles).
     */
    void
    reschedulePending()
    {
        queue_.forEach([&](const Entry &e) {
            sched_->schedule(e.arrival, sched_idx_, sched_bit_);
        });
    }

    /** Serializes dynamic state; `saveItem(w, item)` encodes one
     *  in-flight item (checkpoint/restore). */
    template <typename SaveItem>
    void
    save(SnapshotWriter &w, SaveItem &&saveItem) const
    {
        w.u64(last_send_);
        w.boolean(stalled_);
        w.u64(queue_.size());
        queue_.forEach([&](const Entry &e) {
            w.u64(e.arrival);
            saveItem(w, e.item);
        });
    }

    /** Restores state written by save(); `loadItem(r)` decodes one
     *  in-flight item. */
    template <typename LoadItem>
    void
    restore(SnapshotReader &r, LoadItem &&loadItem)
    {
        last_send_ = r.u64();
        stalled_ = r.boolean();
        queue_.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Cycle arrival = r.u64();
            queue_.emplace_back(Entry{arrival, loadItem(r)});
        }
    }

  private:
    struct Entry
    {
        Cycle arrival;
        T item;
    };

    Cycle latency_;
    Cycle last_send_ = INVALID_CYCLE;
    bool stalled_ = false;
    RingQueue<Entry> queue_;
    ArrivalScheduler *sched_ = nullptr;
    unsigned sched_idx_ = 0;
    std::uint32_t sched_bit_ = 0;
};

/** Credit message: one freed buffer slot on a given VC. */
struct Credit
{
    unsigned vc = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_CHANNEL_HH
