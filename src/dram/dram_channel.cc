/**
 * @file
 * DramChannel implementation.
 */

#include "dram/dram_channel.hh"

#include <bit>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

DramChannel::DramChannel(const DramChannelParams &params)
    : params_(params)
{
    tenoc_assert(params_.queueCapacity >= 1 &&
                 params_.queueCapacity <= MAX_QUEUE,
                 "DRAM queue capacity must lie in [1, ", MAX_QUEUE, "]");
    tenoc_assert(params_.timing.numBanks >= 1 &&
                 params_.timing.numBanks <= MAX_BANKS,
                 "bank count must fit the scheduler's bank mask");
    banks_.assign(params_.timing.numBanks, DramBank(params_.timing));
    queue_.reserve(params_.queueCapacity);
}

bool
DramChannel::canAccept() const
{
    return queue_.size() < params_.queueCapacity;
}

void
DramChannel::push(DramRequest req, Cycle now)
{
    tenoc_assert(canAccept(), "DRAM queue overflow");
    req.arrival = now;
    req.coord = mapAddress(params_.timing, req.localAddr);
    const unsigned b = req.coord.bank;
    const std::uint64_t bit = std::uint64_t{1} << queue_.size();
    masks_.requests[b] |= bit;
    masks_.busy |= 1u << b;
    const DramBank &bank = banks_[b];
    if (bank.state() == DramBank::State::ACTIVE &&
        bank.activeRow() == req.coord.row)
        masks_.hits[b] |= bit;
    queue_.push_back(std::move(req));
    idle_until_ = 0;
}

void
DramChannel::eraseAt(std::size_t pos)
{
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
    const std::uint64_t below = (std::uint64_t{1} << pos) - 1;
    const auto drop = [below](std::uint64_t m) {
        return (m & below) | ((m >> 1) & ~below);
    };
    for (std::uint32_t bits = masks_.busy; bits; bits &= bits - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        masks_.requests[b] = drop(masks_.requests[b]);
        masks_.hits[b] = drop(masks_.hits[b]);
        if (!masks_.requests[b])
            masks_.busy &= ~(1u << b);
    }
}

void
DramChannel::rebuildHitMask(unsigned bank)
{
    const DramBank &bk = banks_[bank];
    std::uint64_t hits = 0;
    if (bk.state() == DramBank::State::ACTIVE) {
        for (std::uint64_t m = masks_.requests[bank]; m; m &= m - 1) {
            const auto pos = static_cast<unsigned>(std::countr_zero(m));
            if (queue_[pos].coord.row == bk.activeRow())
                hits |= std::uint64_t{1} << pos;
        }
    }
    masks_.hits[bank] = hits;
}

DramChannel::Masks
DramChannel::computeMasks() const
{
    Masks m;
    for (std::size_t pos = 0; pos < queue_.size(); ++pos) {
        const DramCoord &c = queue_[pos].coord;
        const DramBank &bank = banks_[c.bank];
        const std::uint64_t bit = std::uint64_t{1} << pos;
        m.requests[c.bank] |= bit;
        m.busy |= 1u << c.bank;
        if (bank.state() == DramBank::State::ACTIVE &&
            bank.activeRow() == c.row)
            m.hits[c.bank] |= bit;
    }
    return m;
}

void
DramChannel::auditMasks(Cycle now) const
{
    const Masks want = computeMasks();
    for (unsigned b = 0; b < banks_.size(); ++b) {
        const bool busy = (masks_.busy >> b) & 1;
        if (masks_.requests[b] != want.requests[b] ||
            masks_.hits[b] != want.hits[b] ||
            busy != (((want.busy >> b) & 1) != 0))
            tenoc_fatal("DRAM channel ", channel_id_, " bank ", b,
                        " masks disagree with the queue at mem cycle ",
                        now, ": requests ", masks_.requests[b],
                        " (expected ", want.requests[b], "), row hits ",
                        masks_.hits[b], " (expected ", want.hits[b],
                        "), busy ", busy);
    }
}

void
DramChannel::cycle(Cycle now)
{
    // Retire in-flight transfers whose data burst has finished (this
    // moves them to completed_, so the read-out buffer keeps its
    // occupancy).
    while (!in_flight_.empty() && in_flight_.front().doneAt <= now) {
        completed_.push_back(std::move(in_flight_.front().req));
        in_flight_.pop_front();
    }

    const bool pending = !queue_.empty() || !in_flight_.empty();
    if (pending)
        ++pending_cycles_;
    if (now < bus_free_at_)
        ++bus_busy_cycles_;

    if (validate_)
        auditMasks(now);
    if (queue_.empty())
        return;
    if (!returnSpace())
        sched_stats_.blockedByReturnBuffer.inc();

    if (now < idle_until_) {
        // The pick cannot change before idle_until_: the banks, the
        // bus, the queue and the read-out buffer's occupancy only
        // change when a command issues, a request is pushed or a
        // completed one is popped, and each of those clears it.  So
        // this cycle counts the same row hit (if any) and issues
        // nothing.
        if (idle_hit_) {
            sched_stats_.rowHitPicks.inc();
            sched_stats_.reorderDepth.sample(
                static_cast<double>(*idle_hit_));
        }
        if (validate_) {
            const FrFcfsPick p = FrFcfsScheduler::pick(*this, now);
            if (p.command != FrFcfsPick::Command::NONE ||
                p.rowHit != idle_hit_)
                tenoc_fatal("DRAM channel ", channel_id_,
                            " skipped mem cycle ", now, " (idle until ",
                            idle_until_, ") but FR-FCFS would ",
                            p.command != FrFcfsPick::Command::NONE
                                ? "issue a command"
                                : "find a different row hit");
        }
        return;
    }

    const FrFcfsPick p = FrFcfsScheduler::pick(*this, now);
    if (p.rowHit) {
        sched_stats_.rowHitPicks.inc();
        sched_stats_.reorderDepth.sample(static_cast<double>(*p.rowHit));
    }
    idle_until_ = p.idleUntil;
    idle_hit_ = p.rowHit;
    apply(p, now);
}

void
DramChannel::apply(const FrFcfsPick &p, Cycle now)
{
    const auto &t = params_.timing;
    switch (p.command) {
      case FrFcfsPick::Command::NONE:
        break;
      case FrFcfsPick::Command::CAS: {
        DramRequest req = queue_[p.index];
        banks_[req.coord.bank].cas(now);
        const Cycle data_end = now + t.tCL + t.burstCycles();
        bus_free_at_ = data_end;
        last_cas_was_write_ = req.write;
        if (req.openedRow)
            ++row_misses_;
        else
            ++row_hits_;
        InFlight fl;
        fl.req = std::move(req);
        fl.doneAt = data_end;
        in_flight_.push_back(std::move(fl));
        eraseAt(p.index);
        ++served_;
        break;
      }
      case FrFcfsPick::Command::PRECHARGE: {
        const unsigned b = queue_[p.index].coord.bank;
        banks_[b].precharge(now);
        masks_.hits[b] = 0;
        break;
      }
      case FrFcfsPick::Command::ACTIVATE: {
        DramRequest &req = queue_[p.index];
        banks_[req.coord.bank].activate(now, req.coord.row);
        req.openedRow = true;
        last_activate_ = now;
        ever_activated_ = true;
        rebuildHitMask(req.coord.bank);
        break;
      }
    }
}

std::optional<DramRequest>
DramChannel::popCompleted()
{
    if (completed_.empty())
        return std::nullopt;
    DramRequest r = std::move(completed_.front());
    completed_.pop_front();
    idle_until_ = 0; // the read-out buffer has room again
    return r;
}

bool
DramChannel::idle() const
{
    return queue_.empty() && in_flight_.empty() && completed_.empty();
}

double
DramChannel::efficiency() const
{
    if (pending_cycles_ == 0)
        return 0.0;
    return static_cast<double>(bus_busy_cycles_) /
        static_cast<double>(pending_cycles_);
}

void
DramChannel::registerStats(StatGroup &group) const
{
    group.addValue("row_hits", [this] {
        return static_cast<double>(row_hits_);
    });
    group.addValue("row_misses", [this] {
        return static_cast<double>(row_misses_);
    });
    group.addValue("served_requests", [this] {
        return static_cast<double>(served_);
    });
    group.addValue("bus_busy_cycles", [this] {
        return static_cast<double>(bus_busy_cycles_);
    });
    group.addValue("pending_cycles", [this] {
        return static_cast<double>(pending_cycles_);
    });
    group.addValue("efficiency", [this] { return efficiency(); });
    group.add(&sched_stats_.rowHitPicks);
    group.add(&sched_stats_.reorderDepth);
    group.add(&sched_stats_.blockedByReturnBuffer);
}

namespace
{

void
saveRequest(SnapshotWriter &w, const DramRequest &req)
{
    w.u64(req.localAddr);
    w.boolean(req.write);
    w.u32(req.requester);
    w.u64(req.addr);
    w.u64(req.arrival);
    w.u32(req.coord.bank);
    w.u64(req.coord.row);
    w.boolean(req.openedRow);
}

DramRequest
loadRequest(SnapshotReader &r)
{
    DramRequest req;
    req.localAddr = r.u64();
    req.write = r.boolean();
    req.requester = r.u32();
    req.addr = r.u64();
    req.arrival = r.u64();
    req.coord.bank = r.u32();
    req.coord.row = r.u64();
    req.openedRow = r.boolean();
    return req;
}

} // namespace

void
DramChannel::save(SnapshotWriter &w) const
{
    w.tag("DRAM");
    w.u64(banks_.size());
    for (const DramBank &bank : banks_)
        bank.save(w);
    w.u64(queue_.size());
    for (const DramRequest &req : queue_)
        saveRequest(w, req);
    w.u64(in_flight_.size());
    for (const InFlight &inf : in_flight_) {
        saveRequest(w, inf.req);
        w.u64(inf.doneAt);
    }
    w.u64(completed_.size());
    for (const DramRequest &req : completed_)
        saveRequest(w, req);
    w.u64(bus_free_at_);
    w.u64(last_activate_);
    w.boolean(ever_activated_);
    w.boolean(last_cas_was_write_);
    w.u64(row_hits_);
    w.u64(row_misses_);
    w.u64(served_);
    w.u64(bus_busy_cycles_);
    w.u64(pending_cycles_);
    saveStat(w, sched_stats_.rowHitPicks);
    saveStat(w, sched_stats_.reorderDepth);
    saveStat(w, sched_stats_.blockedByReturnBuffer);
}

void
DramChannel::restore(SnapshotReader &r)
{
    r.tag("DRAM");
    const std::uint64_t nbanks = r.u64();
    tenoc_assert(nbanks == banks_.size(),
                 "DRAM bank count mismatch in snapshot");
    for (DramBank &bank : banks_)
        bank.restore(r);
    queue_.clear();
    const std::uint64_t nq = r.u64();
    tenoc_assert(nq <= params_.queueCapacity,
                 "DRAM queue in snapshot exceeds its capacity");
    for (std::uint64_t i = 0; i < nq; ++i)
        queue_.push_back(loadRequest(r));
    masks_ = computeMasks();
    in_flight_.clear();
    const std::uint64_t nf = r.u64();
    for (std::uint64_t i = 0; i < nf; ++i) {
        InFlight inf;
        inf.req = loadRequest(r);
        inf.doneAt = r.u64();
        in_flight_.push_back(std::move(inf));
    }
    completed_.clear();
    const std::uint64_t nc = r.u64();
    for (std::uint64_t i = 0; i < nc; ++i)
        completed_.push_back(loadRequest(r));
    bus_free_at_ = r.u64();
    last_activate_ = r.u64();
    ever_activated_ = r.boolean();
    last_cas_was_write_ = r.boolean();
    row_hits_ = r.u64();
    row_misses_ = r.u64();
    served_ = r.u64();
    bus_busy_cycles_ = r.u64();
    pending_cycles_ = r.u64();
    restoreStat(r, sched_stats_.rowHitPicks);
    restoreStat(r, sched_stats_.reorderDepth);
    restoreStat(r, sched_stats_.blockedByReturnBuffer);
    idle_until_ = 0;
}

} // namespace tenoc
