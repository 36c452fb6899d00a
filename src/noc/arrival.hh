/**
 * @file
 * Arrival scheduling for channel delivery.
 *
 * Every Channel::send already knows the exact delivery cycle
 * (now + latency), so instead of having each receiver poll
 * Channel::receive(now) on every port every cycle, the sender posts a
 * wake into a per-network ArrivalScheduler: a timing wheel of
 * `arrival mod W` buckets plus one pending-port bitmask word per
 * receiver.  At the start of cycle `now` the network fires bucket
 * `now mod W`, which ORs each matured entry's port bit into its
 * receiver's pending word and marks the receiver in the active set.
 * Router::readInputs then drains exactly the ports whose front entry
 * has matured, and idle-skip retirement can put a router to sleep
 * while items are still in flight toward it — the wheel wakes it on
 * the arrival cycle (see docs/performance.md, "Sleep-until-arrival").
 *
 * Bit-exactness: deferring the active-set mark from send time to
 * arrival time cannot change results because every cycle a component
 * would have been ticked in between is a no-op — receive(now) returns
 * nothing before the arrival cycle, so all pipeline stages early-out
 * — and ticking an idle component never mutates state (the idle-skip
 * argument).  Pending words are pure schedule metadata: they select
 * which ports are scanned, and a port without a matured front entry
 * delivers nothing when scanned, so scanning fewer ports is invisible.
 */

#ifndef TENOC_NOC_ARRIVAL_HH
#define TENOC_NOC_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "noc/activity.hh"

namespace tenoc
{

/** Per-network timing wheel + per-receiver pending-port words. */
class ArrivalScheduler
{
  public:
    /**
     * Sizes the wheel for `receivers` components and channel latencies
     * up to `max_latency`, waking receivers through `wake`.  Resets
     * all pending words and scheduled entries.
     */
    void
    configure(unsigned receivers, Cycle max_latency, ActiveSet *wake)
    {
        tenoc_assert(wake != nullptr, "arrival scheduler needs a wake set");
        wake_ = wake;
        pending_.assign(receivers, 0);
        // Power-of-two bucket count > max schedule distance, so two
        // live entries can never alias one bucket at different cycles
        // unless the incremental fire loop visits it anyway.
        std::size_t w = 4;
        while (w < max_latency + 2)
            w <<= 1;
        buckets_.clear();
        buckets_.resize(w);
        mask_ = w - 1;
        population_ = 0;
        primed_ = false;
        last_fire_ = 0;
    }

    /** @return true once configure() has run. */
    bool configured() const { return wake_ != nullptr; }

    /**
     * Posts a wake: at cycle `arrival`, OR `bit` into receiver `idx`'s
     * pending word and mark it active.
     */
    void
    schedule(Cycle arrival, unsigned idx, std::uint32_t bit)
    {
        buckets_[arrival & mask_].push_back(Entry{arrival, idx, bit});
        ++population_;
    }

    /**
     * Immediate wake (stall-clear path): the receiver has a matured
     * backlog right now, so set the pending bit and mark it live.
     */
    void
    wakeNow(unsigned idx, std::uint32_t bit)
    {
        pending_[idx] |= bit;
        wake_->mark(idx);
    }

    /**
     * Fires every entry that matures by cycle `now`: sets its pending
     * bit and marks its receiver.  Call once at the start of each
     * network cycle, before the active masks are iterated.
     * Handles drivers that skip cycles (every bucket in the gap is
     * visited; a gap spanning the whole wheel degrades to one full
     * sweep) and a fresh post-restore wheel (full sweep on first
     * fire).
     */
    void
    fire(Cycle now)
    {
        if (primed_ && now <= last_fire_)
            return;
        const bool sweep_all =
            !primed_ || (now - last_fire_ >= buckets_.size());
        const Cycle start = last_fire_ + 1;
        primed_ = true;
        last_fire_ = now;
        if (population_ == 0)
            return;
        if (sweep_all) {
            for (auto &b : buckets_)
                fireBucket(b, now);
        } else {
            for (Cycle c = start; c <= now; ++c)
                fireBucket(buckets_[c & mask_], now);
        }
    }

    /** Pending-port word of receiver `idx` (bit set = a matured,
     *  not-yet-drained arrival on that port). */
    std::uint32_t pending(unsigned idx) const { return pending_[idx]; }

    /** Overwrites receiver `idx`'s pending word (drain bookkeeping). */
    void
    setPending(unsigned idx, std::uint32_t word)
    {
        pending_[idx] = word;
    }

    /** Total entries waiting in the wheel (tests / diagnostics). */
    std::size_t scheduled() const { return population_; }

    /** Latest cycle whose arrivals fire() has delivered; 0 before the
     *  first fire (no arrival can mature at cycle 0 — every send posts
     *  at >= send cycle + 1).  The invariant checker clamps its deep
     *  matured-arrival scan to this horizon so an audit taken between
     *  cycles does not flag arrivals the wheel has not yet been asked
     *  to deliver. */
    Cycle firedThrough() const { return primed_ ? last_fire_ : 0; }

  private:
    struct Entry
    {
        Cycle arrival;
        std::uint32_t idx;
        std::uint32_t bit;
    };

    /** Fires matured entries of one bucket, keeping future ones (an
     *  aliased entry one wheel turn out stays for its own cycle). */
    void
    fireBucket(std::vector<Entry> &b, Cycle now)
    {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < b.size(); ++i) {
            const Entry &e = b[i];
            if (e.arrival <= now) {
                pending_[e.idx] |= e.bit;
                wake_->mark(e.idx);
                --population_;
            } else {
                b[keep++] = b[i];
            }
        }
        b.resize(keep);
    }

    std::vector<std::uint32_t> pending_;
    std::vector<std::vector<Entry>> buckets_;
    std::size_t mask_ = 0;
    std::size_t population_ = 0;
    bool primed_ = false;
    Cycle last_fire_ = 0;
    ActiveSet *wake_ = nullptr;
};

} // namespace tenoc

#endif // TENOC_NOC_ARRIVAL_HH
