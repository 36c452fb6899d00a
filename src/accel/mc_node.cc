/**
 * @file
 * McNode implementation.
 */

#include "accel/mc_node.hh"

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

McNode::McNode(NodeId node, unsigned index, const McNodeParams &params,
               Network &net, std::uint64_t seed)
    : node_(node), index_(index), params_(params), net_(net),
      l2_(params.l2, seed ^ 0xabcd1234ULL), dram_(params.dram)
{}

bool
McNode::tryReserve(const Packet &pkt)
{
    (void)pkt;
    if (input_queue_.size() + reserved_ >= params_.inputQueueCap)
        return false;
    ++reserved_;
    return true;
}

void
McNode::deliver(PacketPtr pkt, Cycle now)
{
    (void)now;
    tenoc_assert(reserved_ > 0, "deliver without reservation");
    --reserved_;
    tenoc_assert(isRequest(pkt->op), "MC received a non-request");
    input_queue_.push_back(std::move(pkt));
}

void
McNode::icntCycle(Cycle icnt_now)
{
    ++icnt_cycles_;

    // 1. Reply injection: keep only a shallow window queued in the NI
    //    so network backpressure reaches the DRAM read-out quickly;
    //    count cycles where replies wait on the network (Fig. 11).
    bool progressed = false;
    while (!reply_queue_.empty()) {
        const unsigned space = net_.injectSpace(node_, 1);
        const unsigned used = space >= params_.niQueueCap
            ? 0u : params_.niQueueCap - space;
        if (used >= params_.niReplyDepth)
            break;
        injectReply(std::move(reply_queue_.front()), icnt_now);
        reply_queue_.pop_front();
        progressed = true;
    }
    if (!reply_queue_.empty() && !progressed)
        ++stall_cycles_;

    // 2. Release L2-hit replies whose latency elapsed.
    while (!l2_pipe_.empty() && l2_pipe_.front().readyAt <= icnt_now) {
        reply_queue_.push_back(std::move(l2_pipe_.front().pkt));
        l2_pipe_.pop_front();
    }

    // 3. Retry a request stalled on the DRAM queue.
    if (dram_wait_ && dram_.canAccept()) {
        pushDram(*dram_wait_);
        dram_wait_.reset();
    }

    // 4. One L2 lookup per interconnect cycle.
    if (dram_wait_ || input_queue_.empty())
        return;
    PacketPtr pkt = std::move(input_queue_.front());
    input_queue_.pop_front();
    ++requests_served_;

    const bool is_write = (pkt->op == MemOp::WRITE_REQUEST);
    const auto res = l2_.access(pkt->addr);
    if (res.hit) {
        if (!is_write) {
            auto reply = makePacket();
            reply->src = node_;
            reply->dst = pkt->src;
            reply->op = MemOp::READ_REPLY;
            reply->protoClass = 1;
            reply->addr = pkt->addr;
            reply->sizeFlits = net_.packetFlits(MemOp::READ_REPLY);
            reply->sizeBytes = memOpBytes(MemOp::READ_REPLY);
            l2_pipe_.push_back(
                DelayedReply{std::move(reply),
                             icnt_now + params_.l2HitLatency});
        }
        // Writes that hit are absorbed by the L2 (writeback bank).
        return;
    }

    // L2 miss: go to DRAM (writes go straight to memory).
    if (dram_.canAccept())
        pushDram(*pkt);
    else
        dram_wait_ = std::move(pkt); // head-of-line: MC input blocked
}

void
McNode::pushDram(const Packet &pkt)
{
    DramRequest req;
    req.localAddr = compactAddress(pkt.addr, params_.numChannels,
                                   params_.interleaveBytes);
    req.write = (pkt.op == MemOp::WRITE_REQUEST);
    req.requester = pkt.src;
    req.addr = pkt.addr;
    dram_.push(std::move(req), mem_now_);
}

void
McNode::memCycle(Cycle mem_now)
{
    mem_now_ = mem_now;
    dram_.cycle(mem_now);

    // Read out completed requests while the reply path has room.
    while (reply_queue_.size() + l2_pipe_.size() <
           params_.replyQueueSoftCap) {
        const auto done = dram_.popCompleted();
        if (!done)
            break;
        if (done->write)
            continue; // writes are fire-and-forget
        auto reply = makePacket();
        reply->src = node_;
        reply->dst = done->requester;
        reply->op = MemOp::READ_REPLY;
        reply->protoClass = 1;
        reply->addr = done->addr;
        reply->sizeFlits = net_.packetFlits(MemOp::READ_REPLY);
        reply->sizeBytes = memOpBytes(MemOp::READ_REPLY);
        reply_queue_.push_back(std::move(reply));
    }
}

void
McNode::injectReply(PacketPtr reply, Cycle icnt_now)
{
    net_.inject(std::move(reply), icnt_now);
}

bool
McNode::idle() const
{
    return input_queue_.empty() && l2_pipe_.empty() &&
        reply_queue_.empty() && !dram_wait_ && dram_.idle();
}

void
McNode::registerStats(StatGroup &group) const
{
    group.addValue("requests_served", [this] {
        return static_cast<double>(requests_served_);
    });
    group.addValue("stall_cycles", [this] {
        return static_cast<double>(stall_cycles_);
    });
    group.addValue("icnt_cycles", [this] {
        return static_cast<double>(icnt_cycles_);
    });
    group.addValue("stall_fraction",
                   [this] { return stallFraction(); });
}

void
McNode::save(SnapshotWriter &w) const
{
    w.tag("MCND");
    l2_.save(w);
    dram_.save(w);
    w.u32(reserved_);
    w.u64(input_queue_.size());
    for (const PacketPtr &pkt : input_queue_)
        savePacket(w, pkt);
    w.u64(l2_pipe_.size());
    for (const DelayedReply &dr : l2_pipe_) {
        savePacket(w, dr.pkt);
        w.u64(dr.readyAt);
    }
    w.boolean(dram_wait_ != nullptr);
    if (dram_wait_)
        savePacket(w, dram_wait_);
    w.u64(reply_queue_.size());
    for (const PacketPtr &pkt : reply_queue_)
        savePacket(w, pkt);
    w.u64(stall_cycles_);
    w.u64(icnt_cycles_);
    w.u64(requests_served_);
    w.u64(mem_now_);
}

void
McNode::restore(SnapshotReader &r)
{
    r.tag("MCND");
    l2_.restore(r);
    dram_.restore(r);
    reserved_ = r.u32();
    input_queue_.clear();
    const std::uint64_t nin = r.u64();
    for (std::uint64_t i = 0; i < nin; ++i)
        input_queue_.push_back(loadPacket(r));
    l2_pipe_.clear();
    const std::uint64_t npipe = r.u64();
    for (std::uint64_t i = 0; i < npipe; ++i) {
        DelayedReply dr;
        dr.pkt = loadPacket(r);
        dr.readyAt = r.u64();
        l2_pipe_.push_back(std::move(dr));
    }
    dram_wait_.reset();
    if (r.boolean())
        dram_wait_ = loadPacket(r);
    reply_queue_.clear();
    const std::uint64_t nreply = r.u64();
    for (std::uint64_t i = 0; i < nreply; ++i)
        reply_queue_.push_back(loadPacket(r));
    stall_cycles_ = r.u64();
    icnt_cycles_ = r.u64();
    requests_served_ = r.u64();
    mem_now_ = r.u64();
}

} // namespace tenoc
