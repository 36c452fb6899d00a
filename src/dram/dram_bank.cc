/**
 * @file
 * DramBank implementation.
 */

#include "dram/dram_bank.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

void
DramBank::activate(Cycle now, std::uint64_t row)
{
    tenoc_assert(canActivate(now), "illegal ACTIVATE");
    state_ = State::ACTIVE;
    active_row_ = row;
    last_activate_ = now;
    ever_activated_ = true;
    ready_at_ = now + timing_.tRCD;
    ras_done_at_ = now + timing_.tRAS;
    last_cas_end_ = now;
    ++activations_;
}

void
DramBank::cas(Cycle now)
{
    tenoc_assert(state_ == State::ACTIVE && now >= ready_at_,
                 "illegal CAS");
    // Back-to-back CAS spacing equals the data burst length.
    ready_at_ = now + timing_.burstCycles();
    last_cas_end_ =
        std::max<Cycle>(last_cas_end_,
                        now + timing_.tCL + timing_.burstCycles());
}

void
DramBank::precharge(Cycle now)
{
    tenoc_assert(canPrecharge(now), "illegal PRECHARGE");
    state_ = State::IDLE;
    ready_at_ = now + timing_.tRP;
}

void
DramBank::save(SnapshotWriter &w) const
{
    w.u8(static_cast<std::uint8_t>(state_));
    w.u64(active_row_);
    w.u64(ready_at_);
    w.u64(last_activate_);
    w.u64(ras_done_at_);
    w.u64(last_cas_end_);
    w.boolean(ever_activated_);
    w.u64(activations_);
}

void
DramBank::restore(SnapshotReader &r)
{
    state_ = static_cast<State>(r.u8());
    active_row_ = r.u64();
    ready_at_ = r.u64();
    last_activate_ = r.u64();
    ras_done_at_ = r.u64();
    last_cas_end_ = r.u64();
    ever_activated_ = r.boolean();
    activations_ = r.u64();
}

} // namespace tenoc
