/**
 * @file
 * Idealized networks for the paper's limit studies.
 *
 *  - PERFECT (Sec. III-B, Fig. 7): zero latency, infinite bandwidth.
 *  - BW_LIMITED (Sec. III-A, Fig. 6): zero latency once a flit is
 *    accepted, but a global cap on flits accepted per interconnect
 *    cycle.  Multiple sources may transmit to one destination in a
 *    cycle and a source may send multiple flits per cycle.
 *
 * Both honor destination-side backpressure via PacketSink so closed-
 * loop structures (MC request queues) stay meaningful.
 */

#ifndef TENOC_NOC_IDEAL_NETWORK_HH
#define TENOC_NOC_IDEAL_NETWORK_HH

#include <deque>
#include <memory>
#include <vector>

#include "noc/network.hh"

namespace tenoc
{

/** Configuration for an ideal network. */
struct IdealNetworkParams
{
    TopologyParams topo;
    unsigned flitBytes = 16;        ///< for packet sizing only
    bool bandwidthLimited = false;  ///< false = perfect network
    /** Aggregate accepted flits per interconnect cycle (may be
     *  fractional; a token bucket accumulates budget each cycle). */
    double flitsPerCycle = 0.0;
};

class IdealNetwork : public Network
{
  public:
    explicit IdealNetwork(const IdealNetworkParams &params);

    const Topology &topology() const override { return topo_; }
    unsigned flitBytes() const override { return params_.flitBytes; }
    bool canInject(NodeId n, int proto_class) const override;
    unsigned injectSpace(NodeId n, int proto_class) const override;
    void inject(PacketPtr pkt, Cycle now) override;
    void setSink(NodeId n, PacketSink *sink) override;
    void cycle(Cycle now) override;
    bool drained() const override;
    NetStats &stats() override { return stats_; }

    /** Serializes stats, queued packets, the token bucket and the
     *  packet-id counter. */
    void save(SnapshotWriter &w) const override;

    /** Restores state written by save() into an identically
     *  configured network. */
    void restore(SnapshotReader &r) override;

  private:
    /** Queues `pkt` for delivery at its destination. */
    void accept(PacketPtr pkt);

    IdealNetworkParams params_;
    Topology topo_;
    NetStats stats_;

    /** Packets accepted by the network, pending sink delivery. */
    std::vector<std::deque<PacketPtr>> pending_; ///< per destination
    /** Destinations with a non-empty pending queue, 64 per word. */
    std::vector<std::uint64_t> busy_;
    /** Packets not yet accepted (BW limit). */
    std::deque<PacketPtr> waiting_;
    double tokens_ = 0.0;
    std::uint64_t next_pkt_id_ = 1;
    std::vector<PacketSink *> sinks_;
};

} // namespace tenoc

#endif // TENOC_NOC_IDEAL_NETWORK_HH
