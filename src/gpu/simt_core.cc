/**
 * @file
 * SimtCore implementation.
 */

#include "gpu/simt_core.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

namespace
{

/** L1 cache parameters from the kernel profile. */
CacheParams
l1Params(const KernelProfile &profile, unsigned line_bytes)
{
    CacheParams p;
    p.sizeBytes = 16 * 1024; // Table II
    p.lineBytes = line_bytes;
    p.ways = 4;
    p.profileHitRate = profile.l1HitRate;
    p.profileWritebackRate = profile.writebackRate;
    return p;
}

} // namespace

SimtCore::SimtCore(unsigned id, const SimtCoreParams &params,
                   const KernelProfile &profile, CoreMemPort &port,
                   std::uint64_t seed)
    : id_(id), params_(params), profile_(profile), port_(port),
      rng_(seed ^ (0x5851f42d4c957f2dULL * (id + 1))),
      l1_(l1Params(profile, params.lineBytes), seed + id),
      mshrs_(params.mshrEntries),
      source_(profile, id,
              std::min(profile.warpsPerCore, params.maxWarps),
              params.lineBytes, params.warpSize)
{
    const unsigned warps = source_.numWarps();
    tenoc_assert(warps >= 1, "kernel needs at least one warp");
    warps_.resize(warps);
    for (unsigned w = 0; w < warps; ++w) {
        warps_[w].id = w;
        warps_[w].instsRemaining = source_.warpLength(w);
        if (warps_[w].instsRemaining == 0) {
            warps_[w].state = Warp::State::DONE;
            ++warps_done_;
        }
    }
    slot_countdown_ = params_.issueInterval();
}

void
SimtCore::restart()
{
    tenoc_assert(done(), "restart before the previous kernel retired");
    tenoc_assert(mshrs_.size() == 0,
                 "restart with memory traffic in flight");
    warps_done_ = 0;
    rr_warp_ = 0;
    slot_countdown_ = params_.issueInterval();
    stall_memo_ = false;
    for (auto &warp : warps_) {
        warp.state = Warp::State::READY;
        warp.instsRemaining = source_.warpLength(warp.id);
        warp.pendingReplies = 0;
        warp.next = Warp::PendingInst{};
        if (warp.instsRemaining == 0) {
            warp.state = Warp::State::DONE;
            ++warps_done_;
        }
    }
}

void
SimtCore::cycle(Cycle core_cycle)
{
    if (done())
        return;
    if (--slot_countdown_ > 0)
        return;
    slot_countdown_ = params_.issueInterval();
    if (!issueSlot(core_cycle))
        ++stall_slots_;
    if (done())
        finish_cycle_ = core_cycle;
}

bool
SimtCore::issueSlot(Cycle core_cycle)
{
    if (stall_memo_ && port_.requestSpace() == stall_space_) {
        if (validate_)
            auditSkippedSlot(core_cycle);
        return false;
    }
    const unsigned n = static_cast<unsigned>(warps_.size());
    for (unsigned i = 0; i < n; ++i) {
        const unsigned w = (rr_warp_ + i) % n;
        Warp &warp = warps_[w];
        if (!warp.canIssue(profile_.maxPendingLines))
            continue;

        // Decode once; a structurally stalled instruction is retried
        // as-is so congestion cannot bias the instruction mix.
        if (!warp.next.valid) {
            source_.decode(w, warp.next, rng_);
            warp.next.valid = true;
        }
        if (warp.next.isMem) {
            if (!executeMemInst(warp)) {
                // Structural stall (MSHRs or injection queue full):
                // this warp holds its decoded instruction; the
                // scheduler tries the next ready warp.
                continue;
            }
            ++mem_insts_;
        }
        warp.next = Warp::PendingInst{};
        ++warp_insts_;
        scalar_insts_ += params_.warpSize;
        tenoc_assert(warp.instsRemaining > 0, "warp over-ran kernel");
        --warp.instsRemaining;
        if (warp.instsRemaining == 0 && warp.pendingReplies == 0) {
            warp.state = Warp::State::DONE;
            ++warps_done_;
        } else if (warp.instsRemaining == 0) {
            // Retire once the last loads come back.
            warp.state = Warp::State::BLOCKED;
        }
        rr_warp_ = (w + 1) % n;
        stall_memo_ = false;
        return true;
    }
    // No ready warp, or every ready warp holds a memory instruction
    // that does not fit: later slots stall the same way until a reply
    // arrives or the port's space changes.
    stall_memo_ = true;
    stall_space_ = port_.requestSpace();
    return false;
}

bool
SimtCore::memInstFits(const Warp &warp) const
{
    const auto &lines = warp.next.lines;
    // Conservative resource check: every line might miss and every
    // miss might add a dirty eviction.
    if (port_.requestSpace() < lines.size() * 2)
        return false;
    unsigned new_entries = 0;
    for (Addr raw : lines) {
        const Addr line = l1_.lineAddr(raw);
        if (!mshrs_.canAllocate(line))
            return false;
        if (!mshrs_.pending(line))
            ++new_entries;
    }
    return mshrs_.size() + new_entries <= mshrs_.capacity();
}

void
SimtCore::auditSkippedSlot(Cycle core_cycle) const
{
    for (const Warp &warp : warps_) {
        if (!warp.canIssue(profile_.maxPendingLines))
            continue;
        if (warp.next.valid && warp.next.isMem && !memInstFits(warp))
            continue;
        tenoc_fatal("core ", id_, " skipped the issue slot at core cycle ",
                    core_cycle, " but warp ", warp.id, " could issue");
    }
}

bool
SimtCore::executeMemInst(Warp &warp)
{
    if (!memInstFits(warp))
        return false;

    for (Addr raw : warp.next.lines) {
        const Addr line = l1_.lineAddr(raw);
        const auto res = l1_.access(line);
        if (res.hit)
            continue;
        if (res.writeback) {
            port_.sendWrite(*res.writeback);
            ++writes_sent_;
        }
        // Write-allocate: stores fetch the line too.
        const bool is_new = mshrs_.allocate(
            line, (static_cast<std::uint64_t>(warp.id)));
        if (is_new) {
            port_.sendRead(line);
            ++reads_sent_;
        }
        ++warp.pendingReplies;
    }
    if (warp.pendingReplies >= profile_.maxPendingLines)
        warp.state = Warp::State::BLOCKED;
    return true;
}

void
SimtCore::onReadReply(Addr line)
{
    stall_memo_ = false;
    mshrs_.release(line, [this](std::uint64_t waiter) {
        auto &warp = warps_[static_cast<std::size_t>(waiter)];
        tenoc_assert(warp.pendingReplies > 0,
                     "reply for warp with no pending requests");
        --warp.pendingReplies;
        if (warp.state != Warp::State::BLOCKED)
            return;
        if (warp.instsRemaining == 0) {
            if (warp.pendingReplies == 0) {
                warp.state = Warp::State::DONE;
                ++warps_done_;
            }
        } else if (warp.pendingReplies < profile_.maxPendingLines) {
            warp.state = Warp::State::READY;
        }
    });
}

void
SimtCore::registerStats(StatGroup &group) const
{
    group.addValue("scalar_insts", [this] {
        return static_cast<double>(scalar_insts_);
    });
    group.addValue("warp_insts", [this] {
        return static_cast<double>(warp_insts_);
    });
    group.addValue("stall_slots", [this] {
        return static_cast<double>(stall_slots_);
    });
    group.addValue("mem_insts", [this] {
        return static_cast<double>(mem_insts_);
    });
    group.addValue("reads_sent", [this] {
        return static_cast<double>(reads_sent_);
    });
    group.addValue("writes_sent", [this] {
        return static_cast<double>(writes_sent_);
    });
}

void
SimtCore::save(SnapshotWriter &w) const
{
    w.tag("CORE");
    const auto st = rng_.state();
    for (const std::uint64_t s : st)
        w.u64(s);
    l1_.save(w);
    mshrs_.save(w);
    source_.save(w);
    w.u64(warps_.size());
    for (const Warp &warp : warps_) {
        w.u8(static_cast<std::uint8_t>(warp.state));
        w.u64(warp.instsRemaining);
        w.u32(warp.pendingReplies);
        w.boolean(warp.next.valid);
        w.boolean(warp.next.isMem);
        w.boolean(warp.next.isStore);
        w.u64(warp.next.lines.size());
        for (const Addr line : warp.next.lines)
            w.u64(line);
    }
    w.u32(rr_warp_);
    w.u32(slot_countdown_);
    w.u64(warps_done_);
    w.u64(scalar_insts_);
    w.u64(warp_insts_);
    w.u64(stall_slots_);
    w.u64(mem_insts_);
    w.u64(reads_sent_);
    w.u64(writes_sent_);
    w.u64(finish_cycle_);
}

void
SimtCore::restore(SnapshotReader &r)
{
    r.tag("CORE");
    std::array<std::uint64_t, 4> st;
    for (std::uint64_t &s : st)
        s = r.u64();
    rng_.setState(st);
    l1_.restore(r);
    mshrs_.restore(r);
    source_.restore(r);
    const std::uint64_t nwarps = r.u64();
    tenoc_assert(nwarps == warps_.size(),
                 "warp count mismatch in snapshot");
    for (Warp &warp : warps_) {
        warp.state = static_cast<Warp::State>(r.u8());
        warp.instsRemaining = r.u64();
        warp.pendingReplies = r.u32();
        warp.next.valid = r.boolean();
        warp.next.isMem = r.boolean();
        warp.next.isStore = r.boolean();
        warp.next.lines.clear();
        const std::uint64_t nlines = r.u64();
        for (std::uint64_t i = 0; i < nlines; ++i)
            warp.next.lines.push_back(r.u64());
    }
    rr_warp_ = r.u32();
    slot_countdown_ = r.u32();
    warps_done_ = static_cast<std::size_t>(r.u64());
    scalar_insts_ = r.u64();
    warp_insts_ = r.u64();
    stall_slots_ = r.u64();
    mem_insts_ = r.u64();
    reads_sent_ = r.u64();
    writes_sent_ = r.u64();
    finish_cycle_ = r.u64();
    stall_memo_ = false;
}

} // namespace tenoc
