/**
 * @file
 * Open-loop traffic endpoint implementations.
 */

#include "noc/traffic.hh"

#include "common/log.hh"

namespace tenoc
{

DestinationChooser::DestinationChooser(std::vector<NodeId> mcs,
                                       double hotspot_fraction)
    : mcs_(std::move(mcs)), hotspot_fraction_(hotspot_fraction)
{
    tenoc_assert(!mcs_.empty(), "no MC nodes to address");
    tenoc_assert(hotspot_fraction_ >= 0.0 && hotspot_fraction_ < 1.0,
                 "bad hotspot fraction");
}

NodeId
DestinationChooser::pick(Rng &rng, NodeId exclude) const
{
    tenoc_assert(mcs_.size() > 1 || mcs_[0] != exclude,
                 "destination exclusion leaves no candidates");
    NodeId d;
    do {
        d = pick(rng);
    } while (d == exclude);
    return d;
}

NodeId
DestinationChooser::pick(Rng &rng) const
{
    if (hotspot_fraction_ > 0.0 && rng.nextBool(hotspot_fraction_))
        return mcs_[0];
    if (hotspot_fraction_ > 0.0 && mcs_.size() > 1) {
        // Remaining traffic spreads over the other MCs.
        return mcs_[1 + rng.nextRange(mcs_.size() - 1)];
    }
    return mcs_[rng.nextRange(mcs_.size())];
}

OpenLoopSource::OpenLoopSource(NodeId node, double rate,
                               unsigned request_flits,
                               const DestinationChooser &dests,
                               Network &net, Rng &rng)
    : node_(node), rate_(rate), request_flits_(request_flits),
      dests_(dests), net_(net), rng_(rng)
{
    tenoc_assert(rate_ >= 0.0 && rate_ <= 1.0,
                 "per-node packet rate must be in [0,1]");
}

void
OpenLoopSource::cycle(Cycle now, bool measuring)
{
    if (rng_.nextBool(rate_)) {
        auto pkt = makePacket();
        pkt->src = node_;
        pkt->dst = dests_.pick(rng_);
        pkt->op = MemOp::READ_REQUEST;
        pkt->protoClass = 0;
        pkt->sizeFlits = request_flits_;
        pkt->sizeBytes = request_flits_ * net_.flitBytes();
        pkt->tag = measuring ? 1 : 0;
        pkt->createdCycle = now; // include source queueing in latency
        ++generated_;
        queue_.push_back(std::move(pkt));
    }
    while (!queue_.empty() && net_.canInject(node_, 0)) {
        net_.inject(std::move(queue_.front()), now);
        queue_.pop_front();
    }
}

McEchoSink::McEchoSink(NodeId node, unsigned reply_flits, Network &net,
                       Accumulator &req_latency,
                       OpenLoopMeasure *measure)
    : node_(node), reply_flits_(reply_flits), net_(net),
      req_latency_(req_latency), measure_(measure)
{}

bool
McEchoSink::tryReserve(const Packet &pkt)
{
    (void)pkt;
    return true; // open-loop MCs have infinite service capacity
}

void
McEchoSink::deliver(PacketPtr pkt, Cycle now)
{
    if (pkt->tag & 1) {
        req_latency_.sample(static_cast<double>(now - pkt->createdCycle));
        if (measure_) {
            measure_->taggedFlitsDelivered += pkt->sizeFlits;
            ++measure_->taggedPacketsDelivered;
        }
    }
    auto reply = makePacket();
    reply->src = node_;
    reply->dst = pkt->src;
    reply->op = MemOp::READ_REPLY;
    reply->protoClass = 1;
    reply->sizeFlits = reply_flits_;
    reply->sizeBytes = reply_flits_ * net_.flitBytes();
    reply->tag = pkt->tag;
    reply->createdCycle = now; // include MC-side queueing in latency
    replies_.push_back(std::move(reply));
}

void
McEchoSink::cycle(Cycle now)
{
    while (!replies_.empty() && net_.canInject(node_, 1)) {
        net_.inject(std::move(replies_.front()), now);
        replies_.pop_front();
    }
}

} // namespace tenoc
