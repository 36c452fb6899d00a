/**
 * @file
 * IdealNetwork implementation.
 */

#include "noc/ideal_network.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

IdealNetwork::IdealNetwork(const IdealNetworkParams &params)
    : params_(params), topo_(params.topo), stats_(topo_.numNodes())
{
    if (params_.bandwidthLimited) {
        tenoc_assert(params_.flitsPerCycle > 0.0,
                     "bandwidth-limited network needs a positive cap");
    }
    pending_.resize(topo_.numNodes());
    busy_.assign((topo_.numNodes() + 63) / 64, 0);
    sinks_.assign(topo_.numNodes(), nullptr);
}

bool
IdealNetwork::canInject(NodeId n, int proto_class) const
{
    (void)n;
    (void)proto_class;
    // Sources are never blocked at injection; the BW token bucket
    // gates acceptance instead (Sec. III-A's model).
    return true;
}

unsigned
IdealNetwork::injectSpace(NodeId n, int proto_class) const
{
    (void)n;
    (void)proto_class;
    return 1u << 20; // effectively unbounded
}

void
IdealNetwork::inject(PacketPtr pkt, Cycle now)
{
    pkt->id = next_pkt_id_++;
    if (pkt->createdCycle == INVALID_CYCLE)
        pkt->createdCycle = now;
    ++stats_.packetsInjected;
    stats_.flitsInjected += pkt->sizeFlits;
    stats_.nodeInjectedFlits[pkt->src] += pkt->sizeFlits;
    stats_.nodeInjectedBytes[pkt->src] += pkt->sizeBytes;
    if (params_.bandwidthLimited)
        waiting_.push_back(std::move(pkt));
    else
        accept(std::move(pkt));
}

void
IdealNetwork::accept(PacketPtr pkt)
{
    const NodeId dst = pkt->dst;
    pending_[dst].push_back(std::move(pkt));
    busy_[dst / 64] |= std::uint64_t{1} << (dst % 64);
}

void
IdealNetwork::setSink(NodeId n, PacketSink *sink)
{
    sinks_[n] = sink;
}

void
IdealNetwork::cycle(Cycle now)
{
    ++stats_.cycles;

    if (params_.bandwidthLimited) {
        tokens_ = std::min(tokens_ + params_.flitsPerCycle,
                           4.0 * params_.flitsPerCycle);
        while (!waiting_.empty() && tokens_ > 0.0) {
            PacketPtr pkt = std::move(waiting_.front());
            waiting_.pop_front();
            tokens_ -= static_cast<double>(pkt->sizeFlits);
            accept(std::move(pkt));
        }
    }

    // Deliver in ascending destination order, visiting only busy
    // destinations.  The busy word is re-read after each destination,
    // so a packet a sink injects for a higher node is delivered this
    // cycle, as in a sweep over every node.
    for (std::size_t w = 0; w < busy_.size(); ++w) {
        std::uint64_t above = ~std::uint64_t{0};
        while (const std::uint64_t bits = busy_[w] & above) {
            const auto bit = static_cast<unsigned>(std::countr_zero(bits));
            above = bit == 63 ? 0 : ~std::uint64_t{0} << (bit + 1);
            const auto n = static_cast<NodeId>(w * 64 + bit);
            auto &q = pending_[n];
            while (!q.empty()) {
                Packet &pkt = *q.front();
                if (sinks_[n] && !sinks_[n]->tryReserve(pkt))
                    break;
                PacketPtr p = std::move(q.front());
                q.pop_front();
                p->injectedCycle = now;
                p->ejectedCycle = now;
                ++stats_.packetsEjected;
                stats_.flitsEjected += p->sizeFlits;
                stats_.nodeEjectedFlits[n] += p->sizeFlits;
                stats_.nodeEjectedBytes[n] += p->sizeBytes;
                stats_.totalLatency.sample(
                    static_cast<double>(now - p->createdCycle));
                stats_.totalLatencyHist.sample(
                    static_cast<double>(now - p->createdCycle));
                stats_.netLatency.sample(0.0);
                if (sinks_[n])
                    sinks_[n]->deliver(std::move(p), now);
            }
            if (q.empty())
                busy_[w] &= ~(std::uint64_t{1} << bit);
        }
    }
}

bool
IdealNetwork::drained() const
{
    if (!waiting_.empty())
        return false;
    for (const std::uint64_t w : busy_)
        if (w)
            return false;
    return true;
}

namespace
{

void
saveQueue(SnapshotWriter &w, const std::deque<PacketPtr> &q)
{
    w.u64(q.size());
    for (const PacketPtr &pkt : q)
        savePacket(w, pkt);
}

void
restoreQueue(SnapshotReader &r, std::deque<PacketPtr> &q)
{
    q.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i)
        q.push_back(loadPacket(r));
}

} // namespace

void
IdealNetwork::save(SnapshotWriter &w) const
{
    w.tag("IDEA");
    w.u32(topo_.numNodes());
    w.boolean(params_.bandwidthLimited);
    stats_.save(w);
    for (const auto &q : pending_)
        saveQueue(w, q);
    saveQueue(w, waiting_);
    w.f64(tokens_);
    w.u64(next_pkt_id_);
}

void
IdealNetwork::restore(SnapshotReader &r)
{
    r.tag("IDEA");
    const std::uint32_t nodes = r.u32();
    const bool bw_limited = r.boolean();
    if (nodes != topo_.numNodes() ||
        bw_limited != params_.bandwidthLimited) {
        tenoc_fatal("snapshot holds an ideal network with ", nodes,
                    " nodes", bw_limited ? " (bandwidth-limited)" : "",
                    "; this one has ", topo_.numNodes(),
                    params_.bandwidthLimited ? " (bandwidth-limited)"
                                             : "");
    }
    stats_.restore(r);
    std::fill(busy_.begin(), busy_.end(), 0);
    for (NodeId n = 0; n < topo_.numNodes(); ++n) {
        restoreQueue(r, pending_[n]);
        if (!pending_[n].empty())
            busy_[n / 64] |= std::uint64_t{1} << (n % 64);
    }
    restoreQueue(r, waiting_);
    tokens_ = r.f64();
    next_pkt_id_ = r.u64();
}

} // namespace tenoc
