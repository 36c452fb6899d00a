/**
 * @file
 * One GDDR3 channel: bounded request queue (32 entries, Table II),
 * FR-FCFS command scheduling over the banks, a shared data bus, and
 * completion delivery.
 *
 * The queue is an array in arrival order, so a request's position is
 * its age rank.  Two words per bank index it: the positions of the
 * bank's requests and the positions that hit the bank's open row.
 * FrFcfsScheduler::pick() reads only these words and the banks.
 */

#ifndef TENOC_DRAM_DRAM_CHANNEL_HH
#define TENOC_DRAM_DRAM_CHANNEL_HH

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "dram/dram_bank.hh"
#include "dram/frfcfs.hh"

namespace tenoc
{

class SnapshotWriter;
class SnapshotReader;

/** Channel configuration. */
struct DramChannelParams
{
    Gddr3Timing timing;
    /** Table II; at most DramChannel::MAX_QUEUE. */
    unsigned queueCapacity = 32;
    /** Read-out buffer: when this many serviced requests are waiting
     *  to leave the controller (the reply path is blocked), no further
     *  CAS issues — the mechanism behind the paper's Fig. 11 stalls. */
    unsigned returnBufferCap = 4;
};

class DramChannel
{
  public:
    /** Queue positions index one mask word. */
    static constexpr unsigned MAX_QUEUE = 64;
    /** Banks index the scheduler's 32-bit busy-bank word. */
    static constexpr unsigned MAX_BANKS = 32;

    explicit DramChannel(const DramChannelParams &params);

    /** @return true if one more request fits in the queue. */
    bool canAccept() const;

    /** Enqueues a request (local address; caller compacted it). */
    void push(DramRequest req, Cycle now);

    /**
     * Advances one memory clock: retires finished bursts, then issues
     * at most one command chosen by FrFcfsScheduler::pick().  A cycle
     * that issues nothing remembers the pick's idleUntil and skips the
     * scheduler until then, counting the row hit it found (if any) on
     * every skipped cycle as pick() would; push(), popCompleted() and
     * restore() forget it.
     */
    void cycle(Cycle now);

    /** @return a completed request, if any (pop one per call). */
    std::optional<DramRequest> popCompleted();

    /** Cycles below this skip the scheduler (0 when not skipping). */
    Cycle idleUntil() const { return idle_until_; }

    /** Queue position of the row hit each skipped cycle counts (none
     *  when the memo found no row hit). */
    std::optional<std::size_t> idleRowHit() const { return idle_hit_; }

    /**
     * With `on`, every cycle recomputes the per-bank masks from the
     * queue and every skipped cycle re-runs the scheduler's pick; a
     * mask mismatch, or a skipped pick that would issue a command or
     * find another row hit than the memo's, is fatal.  `channel` names
     * the channel in those messages.
     */
    void
    setValidate(bool on, unsigned channel)
    {
        validate_ = on;
        channel_id_ = channel;
    }

    /** @return true when queue and in-flight pipeline are empty. */
    bool idle() const;

    const DramBank &bank(unsigned i) const { return banks_[i]; }

    // --- stats ---
    std::uint64_t rowHits() const { return row_hits_; }
    std::uint64_t rowMisses() const { return row_misses_; }
    std::uint64_t servedRequests() const { return served_; }
    std::uint64_t busBusyCycles() const { return bus_busy_cycles_; }
    std::uint64_t pendingCycles() const { return pending_cycles_; }

    /** DRAM efficiency per the paper's footnote 7: data-pin busy time
     *  over time with pending requests. */
    double efficiency() const;

    /** Flips one bit of `bank`'s row-hit mask, so tests can check
     *  that validation notices corrupt derived state. */
    void
    flipHitMaskBitForTest(unsigned bank, unsigned pos)
    {
        masks_.hits[bank] ^= std::uint64_t{1} << pos;
    }

    /** @return queue occupancy (for backpressure stats). */
    std::size_t queueDepth() const { return queue_.size(); }

    const FrFcfsStats &schedStats() const { return sched_stats_; }

    /** Registers all channel statistics under `group` (lazy values for
     *  the plain scalar fields plus the scheduler's stat objects). */
    void registerStats(StatGroup &group) const;

    /** Serializes queues, in-flight pipeline, bus/turnaround state,
     *  banks, and counters. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(); bank count must match. */
    void restore(SnapshotReader &r);

    friend class FrFcfsScheduler;

  private:
    /** @return true if the read-out buffer has room for another CAS. */
    bool
    returnSpace() const
    {
        return in_flight_.size() + completed_.size() <
            params_.returnBufferCap;
    }

    /** Issues the command `p` chose at `now`. */
    void apply(const FrFcfsPick &p, Cycle now);

    /** Removes queue position `pos`, shifting younger positions down
     *  in every bank's masks. */
    void eraseAt(std::size_t pos);

    /** Bit masks over queue positions, kept in step with the queue
     *  and the banks. */
    struct Masks
    {
        /** Per bank: the positions of its requests. */
        std::array<std::uint64_t, MAX_BANKS> requests{};
        /** Per bank: those of them that hit its open row (zero while
         *  the bank is idle). */
        std::array<std::uint64_t, MAX_BANKS> hits{};
        /** Banks with at least one queued request. */
        std::uint32_t busy = 0;
    };

    /** Recomputes `bank`'s row-hit mask from its requests' rows. */
    void rebuildHitMask(unsigned bank);

    /** @return the masks recomputed from the queue and the banks. */
    Masks computeMasks() const;

    /** Fatal if a mask differs from its recomputation at `now`. */
    void auditMasks(Cycle now) const;

    DramChannelParams params_;
    std::vector<DramBank> banks_;
    /** Requests in arrival order; reserved to capacity up front. */
    std::vector<DramRequest> queue_;
    Masks masks_;

    struct InFlight
    {
        DramRequest req;
        Cycle doneAt;
    };
    std::deque<InFlight> in_flight_;
    std::deque<DramRequest> completed_;

    Cycle bus_free_at_ = 0;     ///< data bus reserved until
    Cycle last_activate_ = 0;   ///< channel-wide tRRD
    bool ever_activated_ = false;
    bool last_cas_was_write_ = false; ///< for turnaround penalties

    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
    std::uint64_t served_ = 0;
    std::uint64_t bus_busy_cycles_ = 0;
    std::uint64_t pending_cycles_ = 0;
    FrFcfsStats sched_stats_;

    /** Derived from the state above, so never serialized. */
    Cycle idle_until_ = 0;
    std::optional<std::size_t> idle_hit_;
    bool validate_ = false;
    unsigned channel_id_ = 0;
};

} // namespace tenoc

#endif // TENOC_DRAM_DRAM_CHANNEL_HH
