/**
 * @file
 * Open-loop traffic endpoints for the Fig. 21 experiments: Bernoulli
 * request generators at compute nodes, echo sinks at MC nodes that
 * return multi-flit read replies, and measurement collectors.
 *
 * Traffic is many-to-few-to-many: compute nodes send 1-flit read
 * requests to MCs; each MC answers with a 4-flit reply (only read
 * traffic, as in the paper's open-loop runs).
 */

#ifndef TENOC_NOC_TRAFFIC_HH
#define TENOC_NOC_TRAFFIC_HH

#include <deque>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "noc/network.hh"

namespace tenoc
{

/** Chooses request destinations among the MC nodes. */
class DestinationChooser
{
  public:
    /**
     * @param mcs MC node list
     * @param hotspot_fraction fraction of requests directed at mcs[0];
     *        0 gives uniform random over all MCs
     */
    DestinationChooser(std::vector<NodeId> mcs, double hotspot_fraction);

    NodeId pick(Rng &rng) const;

    /**
     * Picks a destination that is never `exclude` (a node must not
     * address itself).  Re-draws until the draw differs — conditioning
     * the distribution on "!= exclude" — which keeps the remaining
     * destinations at their exact relative probabilities, where a
     * shift/modulo skip would bias the neighbour of `exclude`.
     */
    NodeId pick(Rng &rng, NodeId exclude) const;

  private:
    std::vector<NodeId> mcs_;
    double hotspot_fraction_;
};

/**
 * Measurement-window accounting shared by the open-loop sinks: flits
 * and packets of measurement-tagged packets that completed delivery.
 * Throughput derived from these counters covers exactly the packets
 * whose latency is sampled (tag bit 0), so latency and accepted-load
 * statistics describe the same population — packets generated during
 * warmup contribute to neither.
 */
struct OpenLoopMeasure
{
    std::uint64_t taggedFlitsDelivered = 0;
    std::uint64_t taggedPacketsDelivered = 0;
};

/**
 * Bernoulli packet source with an unbounded source queue (the queue
 * lets offered load exceed accepted throughput so saturation is
 * observable).
 */
class OpenLoopSource
{
  public:
    OpenLoopSource(NodeId node, double rate, unsigned request_flits,
                   const DestinationChooser &dests, Network &net,
                   Rng &rng);

    /** Generates and injects; call once per interconnect cycle. */
    void cycle(Cycle now, bool measuring);

    std::size_t queueDepth() const { return queue_.size(); }
    std::uint64_t generated() const { return generated_; }

  private:
    NodeId node_;
    double rate_;
    unsigned request_flits_;
    const DestinationChooser &dests_;
    Network &net_;
    Rng &rng_;
    std::deque<PacketPtr> queue_;
    std::uint64_t generated_ = 0;
};

/**
 * MC-side sink: accepts requests and echoes a reply of
 * `reply_flits` flits to the requester.
 */
class McEchoSink : public PacketSink
{
  public:
    McEchoSink(NodeId node, unsigned reply_flits, Network &net,
               Accumulator &req_latency,
               OpenLoopMeasure *measure = nullptr);

    bool tryReserve(const Packet &pkt) override;
    void deliver(PacketPtr pkt, Cycle now) override;

    /** Injects pending replies; call once per interconnect cycle. */
    void cycle(Cycle now);

    bool idle() const { return replies_.empty(); }

  private:
    NodeId node_;
    unsigned reply_flits_;
    Network &net_;
    Accumulator &req_latency_;
    OpenLoopMeasure *measure_;
    std::deque<PacketPtr> replies_;
};

/** Core-side sink: collects replies and samples their latency. */
class CollectorSink : public PacketSink
{
  public:
    explicit CollectorSink(Accumulator &latency,
                           OpenLoopMeasure *measure = nullptr)
        : latency_(latency), measure_(measure)
    {}

    bool tryReserve(const Packet &pkt) override
    {
        (void)pkt;
        return true;
    }

    void
    deliver(PacketPtr pkt, Cycle now) override
    {
        // tag bit 0 marks packets generated in the measurement window
        if (pkt->tag & 1) {
            latency_.sample(static_cast<double>(now - pkt->createdCycle));
            if (measure_) {
                measure_->taggedFlitsDelivered += pkt->sizeFlits;
                ++measure_->taggedPacketsDelivered;
            }
        }
    }

  private:
    Accumulator &latency_;
    OpenLoopMeasure *measure_;
};

} // namespace tenoc

#endif // TENOC_NOC_TRAFFIC_HH
