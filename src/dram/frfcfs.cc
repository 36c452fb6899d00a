/**
 * @file
 * FR-FCFS policy implementation.
 */

#include "dram/frfcfs.hh"

#include <algorithm>
#include <bit>

#include "dram/dram_channel.hh"

namespace tenoc
{

namespace
{

/** Calls `f(b)` for each set bit `b` of `bits`, lowest first. */
template <typename F>
void
forEachBank(std::uint32_t bits, F &&f)
{
    while (bits) {
        f(static_cast<unsigned>(std::countr_zero(bits)));
        bits &= bits - 1;
    }
}

/** First cycle a CAS may issue to `bank`'s open row. */
Cycle
casReady(const DramBank &bank)
{
    return bank.earliestCas(bank.activeRow());
}

} // namespace

FrFcfsPick
FrFcfsScheduler::pick(const DramChannel &ch, Cycle now)
{
    using Command = FrFcfsPick::Command;
    const auto &t = ch.params_.timing;
    const bool return_space = ch.returnSpace();
    const Cycle rrd_at =
        ch.ever_activated_ ? ch.last_activate_ + t.tRRD : Cycle{0};

    // One pass over the banks that hold requests.
    //  - Row hits (CAS is gated on read-out buffer space, so a blocked
    //    reply path stalls the DRAM pipeline, Fig. 11): the oldest
    //    ready hit is the lowest position in the union of the ready
    //    banks' hit masks.
    //  - Preparations: banks are prepared in parallel.  Each bank's
    //    oldest request steers it (no row thrashing) unless it is a
    //    row hit, and the single command slot goes to the legal
    //    preparation whose request is oldest (FCFS).
    std::uint64_t ready = 0;
    std::uint32_t waiting = 0; ///< banks whose row hits are not ready
    std::size_t prep = DramChannel::MAX_QUEUE;
    Command prep_cmd = Command::NONE;
    Cycle next = INVALID_CYCLE;
    forEachBank(ch.masks_.busy, [&](unsigned b) {
        const DramBank &bank = ch.banks_[b];
        const std::uint64_t hits = ch.masks_.hits[b];
        const auto oldest =
            static_cast<std::size_t>(std::countr_zero(ch.masks_.requests[b]));
        if (hits) {
            if (return_space) {
                const Cycle at = casReady(bank);
                if (now >= at)
                    ready |= hits;
                else
                    waiting |= 1u << b;
            }
            if ((hits >> oldest) & 1)
                return; // ready or waiting on CAS/bus
        }
        Command cmd;
        Cycle at;
        if (bank.state() == DramBank::State::ACTIVE) {
            cmd = Command::PRECHARGE;
            at = bank.earliestPrecharge();
        } else {
            // Bank idle: activate, honoring channel-wide tRRD.
            cmd = Command::ACTIVATE;
            at = std::max(bank.earliestActivate(), rrd_at);
        }
        if (now < at)
            next = std::min(next, at);
        else if (oldest < prep) {
            prep = oldest;
            prep_cmd = cmd;
        }
    });

    FrFcfsPick p;
    Cycle bus_ready = 0;
    if (ready) {
        p.rowHit = static_cast<std::size_t>(std::countr_zero(ready));
        const DramRequest &req = ch.queue_[*p.rowHit];
        // Switching the data bus between reads and writes costs a
        // turnaround bubble (tRTW / tWTR).
        bus_ready = ch.bus_free_at_;
        if (ch.served_ > 0 && req.write != ch.last_cas_was_write_)
            bus_ready += req.write ? t.tRTW : t.tWTR;
        // Issue only if the data bus is free when the burst starts;
        // otherwise wait (bus contention).
        if (bus_ready <= now + t.tCL) {
            p.command = Command::CAS;
            p.index = *p.rowHit;
            return p;
        }
    }
    if (prep_cmd != Command::NONE) {
        p.command = prep_cmd;
        p.index = prep;
        return p;
    }

    // Nothing issues.  The pick stays the same until a preparation
    // becomes legal, a row hit older than the one found (any, when
    // none was) becomes ready, or the blocked CAS fits the bus.
    const std::uint64_t older = p.rowHit
        ? (std::uint64_t{1} << *p.rowHit) - 1 : ~std::uint64_t{0};
    forEachBank(waiting, [&](unsigned b) {
        if (ch.masks_.hits[b] & older)
            next = std::min(next, casReady(ch.banks_[b]));
    });
    if (p.rowHit)
        next = std::min<Cycle>(next, bus_ready - t.tCL);
    p.idleUntil = next;
    return p;
}

} // namespace tenoc
