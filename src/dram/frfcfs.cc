/**
 * @file
 * FR-FCFS policy implementation.
 */

#include "dram/frfcfs.hh"

#include <algorithm>

#include "dram/dram_channel.hh"

namespace tenoc
{

FrFcfsPick
FrFcfsScheduler::pick(const DramChannel &ch, Cycle now)
{
    using Command = FrFcfsPick::Command;
    const auto &t = ch.params_.timing;
    const auto &queue = ch.queue_;
    FrFcfsPick p;
    // Earliest cycle any command could become legal; complete (and
    // used) only when the scans find nothing ready now.
    Cycle next = INVALID_CYCLE;

    if (ch.returnSpace()) {
        std::size_t i = 0;
        for (auto it = queue.begin(); it != queue.end(); ++it, ++i) {
            const Cycle at =
                ch.banks_[it->coord.bank].earliestCas(it->coord.row);
            if (now >= at) {
                p.rowHit = i;
                break;
            }
            next = std::min(next, at);
        }
    }
    if (p.rowHit) {
        const DramRequest &req = queue[*p.rowHit];
        // Switching the data bus between reads and writes costs a
        // turnaround bubble (tRTW / tWTR).
        Cycle bus_ready = ch.bus_free_at_;
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

    // Otherwise prepare a bank.  Banks are prepared in parallel: for
    // each bank, only its oldest queued request steers it (no row
    // thrashing), and the single command slot this cycle goes to the
    // eligible preparation whose request is oldest (FCFS).
    std::uint32_t seen_banks = 0;
    std::size_t i = 0;
    for (auto it = queue.begin(); it != queue.end(); ++it, ++i) {
        const DramRequest &req = *it;
        const std::uint32_t bit = 1u << req.coord.bank;
        if (seen_banks & bit)
            continue;
        seen_banks |= bit;
        const DramBank &bank = ch.banks_[req.coord.bank];
        Command cmd;
        Cycle at;
        if (bank.state() == DramBank::State::ACTIVE) {
            if (bank.activeRow() == req.coord.row)
                continue; // ready or waiting on CAS/bus
            cmd = Command::PRECHARGE;
            at = bank.earliestPrecharge();
        } else {
            // Bank idle: activate, honoring channel-wide tRRD.
            cmd = Command::ACTIVATE;
            at = std::max(bank.earliestActivate(),
                          ch.ever_activated_
                              ? ch.last_activate_ + t.tRRD : Cycle{0});
        }
        if (now >= at) {
            p.command = cmd;
            p.index = i;
            return p;
        }
        next = std::min(next, at);
    }
    if (!p.rowHit)
        p.idleUntil = next;
    return p;
}

} // namespace tenoc
