/**
 * @file
 * Abstract network interface shared by the mesh simulator, the
 * channel-sliced double network, and the ideal networks used in the
 * paper's limit studies.
 */

#ifndef TENOC_NOC_NETWORK_HH
#define TENOC_NOC_NETWORK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "noc/flit.hh"
#include "noc/topology.hh"

namespace tenoc
{

namespace telemetry
{
class TelemetryHub;
} // namespace telemetry

class SnapshotWriter;
class SnapshotReader;

/**
 * Consumer of packets at a node (compute core or MC).
 *
 * tryReserve() is called when a packet's head flit reaches the front
 * of the NI ejection buffer; returning false applies backpressure into
 * the network.  deliver() is called when the tail flit drains.
 *
 * The network calls tryReserve() and deliver() only from the thread
 * that calls Network::cycle, so sinks need no synchronization of their
 * own.  A sink that injects from inside deliver() must do so only into
 * the network that delivered (same-cycle echo into a sibling slice of
 * a DoubleNetwork would observe that slice mid-cycle).
 */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;
    virtual bool tryReserve(const Packet &pkt) = 0;
    virtual void deliver(PacketPtr pkt, Cycle now) = 0;
};

/** Aggregate network statistics (shared across sliced subnetworks). */
struct NetStats
{
    explicit NetStats(unsigned num_nodes = 0)
        : nodeInjectedFlits(num_nodes, 0),
          nodeEjectedFlits(num_nodes, 0),
          nodeInjectedBytes(num_nodes, 0),
          nodeEjectedBytes(num_nodes, 0)
    {}

    std::uint64_t cycles = 0;
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t flitsInjected = 0;
    std::uint64_t flitsEjected = 0;

    /** Packet latency: NI enqueue -> tail ejected (queueing included). */
    Accumulator totalLatency{"total_latency"};
    /** Network latency: head entered router -> tail ejected. */
    Accumulator netLatency{"net_latency"};
    /** Distribution of total latency (for tail percentiles). */
    Histogram totalLatencyHist{"total_latency_hist", 0.0, 4000.0, 400};

    // --- per-packet latency breakdown (telemetry) ---
    /** Source-side queueing: NI enqueue -> head entered router. */
    Histogram queueLatencyHist{"queue_latency_hist", 0.0, 2000.0, 200};
    /** Traversal: head entered router -> head ejected. */
    Histogram traversalLatencyHist{
        "traversal_latency_hist", 0.0, 1000.0, 200};
    /** Serialization: head ejected -> tail ejected. */
    Histogram serializationLatencyHist{
        "serialization_latency_hist", 0.0, 256.0, 64};

    std::vector<std::uint64_t> nodeInjectedFlits;
    std::vector<std::uint64_t> nodeEjectedFlits;
    std::vector<std::uint64_t> nodeInjectedBytes;
    std::vector<std::uint64_t> nodeEjectedBytes;

    /** Mean accepted traffic over all nodes, bytes/cycle/node. */
    double acceptedBytesPerCyclePerNode() const;

    /** Mean injection rate of a node set, flits/cycle/node. */
    double injectionRate(const std::vector<NodeId> &nodes) const;

    /** Registers every field (scalars lazily, via StatGroup::addValue)
     *  under `group` for structured metrics export. */
    void registerStats(StatGroup &group);

    /** Serializes every field (checkpoint/restore). */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r);
};

/** Abstract interconnect. */
class Network
{
  public:
    virtual ~Network() = default;

    virtual const Topology &topology() const = 0;
    virtual unsigned flitBytes() const = 0;

    /** @return true if the NI at `n` can queue one more packet. */
    virtual bool canInject(NodeId n, int proto_class) const = 0;

    /** @return number of packets the NI at `n` can still queue. */
    virtual unsigned injectSpace(NodeId n, int proto_class) const = 0;

    /** Queues a packet for injection (caller checked canInject). */
    virtual void inject(PacketPtr pkt, Cycle now) = 0;

    /** Registers the packet consumer at node `n`. */
    virtual void setSink(NodeId n, PacketSink *sink) = 0;

    /** Advances one interconnect cycle. */
    virtual void cycle(Cycle now) = 0;

    /** @return true when no traffic remains in flight. */
    virtual bool drained() const = 0;

    /**
     * Wires the hub's sampler probes and flit tracer into the network.
     * Default is a no-op (ideal networks have nothing to sample).
     */
    virtual void attachTelemetry(telemetry::TelemetryHub &hub)
    {
        (void)hub;
    }

    virtual NetStats &stats() = 0;
    const NetStats &stats() const
    {
        return const_cast<Network *>(this)->stats();
    }

    /**
     * Structured JSON snapshot of the network's internal state
     * (per-router VC states, credits, oldest packets, wait-for edges)
     * for deadlock diagnosis.  Harnesses print it when a run fails to
     * drain.  Default is empty (ideal networks have no such state).
     */
    virtual std::string
    diagnosticReport(Cycle now) const
    {
        (void)now;
        return "";
    }

    /**
     * Serializes all dynamic network state at a cycle boundary
     * (checkpoint/restore).  The default fatals, for networks that
     * cannot be checkpointed.
     */
    virtual void save(SnapshotWriter &w) const;

    /** Restores state written by save() into a structurally identical
     *  network.  Default fatals (see save()). */
    virtual void restore(SnapshotReader &r);

    /** Flits needed to carry a memory operation on this network. */
    unsigned
    packetFlits(MemOp op) const
    {
        return flitsForBytes(memOpBytes(op), flitBytes());
    }
};

} // namespace tenoc

#endif // TENOC_NOC_NETWORK_HH
