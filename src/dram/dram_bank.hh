/**
 * @file
 * Per-bank DRAM state machine: IDLE -> (ACTIVATE) -> ACTIVE ->
 * (PRECHARGE) -> IDLE, with tRCD/tRAS/tRP/tRC/tRRD constraints.
 */

#ifndef TENOC_DRAM_DRAM_BANK_HH
#define TENOC_DRAM_DRAM_BANK_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"
#include "dram/gddr3.hh"

namespace tenoc
{

class SnapshotWriter;
class SnapshotReader;

/** One DRAM bank. */
class DramBank
{
  public:
    enum class State : std::uint8_t { IDLE, ACTIVE };

    explicit DramBank(const Gddr3Timing &timing) : timing_(timing) {}

    State state() const { return state_; }
    std::uint64_t activeRow() const { return active_row_; }

    // earliest*() give the first cycle at which a command may issue
    // in the bank's current state (INVALID_CYCLE when the state rules
    // it out).  Each can*() is `now >= earliest*()`, so the legality
    // check and the bound the channel skips idle cycles by cannot
    // drift apart.  Inline: the scheduler calls them per queued
    // request.

    /** ACTIVATE: bank idle, tRP and tRC honored (the cross-bank tRRD
     *  bound belongs to the channel). */
    Cycle
    earliestActivate() const
    {
        if (state_ != State::IDLE)
            return INVALID_CYCLE;
        if (!ever_activated_)
            return ready_at_;
        return std::max<Cycle>(ready_at_, last_activate_ + timing_.tRC);
    }

    /** CAS to `row`: the row is open and the previous burst issued. */
    Cycle
    earliestCas(std::uint64_t row) const
    {
        if (state_ != State::ACTIVE || active_row_ != row)
            return INVALID_CYCLE;
        return ready_at_;
    }

    /** PRECHARGE: the row is open, tRAS passed, the last CAS's data
     *  finished, and the bank is ready. */
    Cycle
    earliestPrecharge() const
    {
        if (state_ != State::ACTIVE)
            return INVALID_CYCLE;
        return std::max({ras_done_at_, last_cas_end_, ready_at_});
    }

    bool canActivate(Cycle now) const { return now >= earliestActivate(); }

    bool
    canCas(Cycle now, std::uint64_t row) const
    {
        return now >= earliestCas(row);
    }

    bool canPrecharge(Cycle now) const { return now >= earliestPrecharge(); }

    /** Issues ACTIVATE for `row`. */
    void activate(Cycle now, std::uint64_t row);

    /** Issues a CAS (read or write). */
    void cas(Cycle now);

    /** Issues PRECHARGE. */
    void precharge(Cycle now);

    std::uint64_t activations() const { return activations_; }

    /** Serializes the bank's dynamic timing state. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r);

  private:
    Gddr3Timing timing_; ///< by value so banks stay assignable
    State state_ = State::IDLE;
    std::uint64_t active_row_ = 0;
    Cycle ready_at_ = 0;        ///< earliest next command to this bank
    Cycle last_activate_ = 0;   ///< for tRC
    Cycle ras_done_at_ = 0;     ///< earliest precharge (tRAS)
    Cycle last_cas_end_ = 0;    ///< earliest precharge after CAS
    bool ever_activated_ = false;
    std::uint64_t activations_ = 0;
};

} // namespace tenoc

#endif // TENOC_DRAM_DRAM_BANK_HH
