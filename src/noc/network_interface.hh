/**
 * @file
 * Network interface (NI): the glue between a node (compute core or MC)
 * and its router.
 *
 * Injection side: per-protocol-class packet queues; each injection
 * port streams one flit per cycle into the router's injection buffer
 * (this per-port limit is exactly the terminal bandwidth that the
 * paper's multi-port MC routers raise).
 *
 * Ejection side: a small flit buffer per ejection port drained at one
 * flit per cycle into the node, with backpressure through
 * PacketSink::tryReserve (an MC whose request queue is full blocks the
 * ejection buffer, which backs up into the network).
 */

#ifndef TENOC_NOC_NETWORK_INTERFACE_HH
#define TENOC_NOC_NETWORK_INTERFACE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "noc/network.hh"
#include "noc/router.hh"

namespace tenoc
{

/** NI configuration. */
struct NiParams
{
    unsigned injQueueCap = 8;    ///< packets per protocol class
    /** Flit slots per ejection port.  Sized to hold several maximum-
     *  size packets so one in-flight write worm cannot head-of-line
     *  block the node interface. */
    unsigned ejBufferFlits = 32;
};

/** Snapshot of one NI's bookkeeping (invariant checker / watchdog). */
struct NiAuditInfo
{
    unsigned queuedPackets = 0;   ///< packets waiting in class queues
    unsigned activeSlots = 0;     ///< packets mid-injection
    unsigned pendingInject = 0;   ///< NI's cached queued+active counter
    unsigned ejFlits = 0;         ///< flits buffered across ej ports
    unsigned ejTails = 0;         ///< tail flits among those
    unsigned ejOccupancyCounter = 0; ///< NI's cached ejection counter
    unsigned maxEjPortOccupancy = 0; ///< fullest single ejection port
    unsigned ejCapacity = 0;      ///< configured flits per ej port
    bool idle = false;
    /** Earliest createdCycle among held packets (INVALID_CYCLE if none). */
    Cycle oldestCreated = INVALID_CYCLE;
};

class NetworkInterface : public EjectionSink
{
  public:
    /**
     * @param node node id
     * @param router local router (already constructed)
     * @param vc_map network VC organization
     * @param params NI configuration
     * @param stats shared network statistics block
     * @param slab optional network-owned SoA arena (see NiSlabs);
     *        must already be configured.  When null the NI owns a
     *        private single-NI arena with the same layout (standalone
     *        / unit-test use).
     * @param slab_index this NI's index into `slab`'s per-NI arrays
     */
    NetworkInterface(NodeId node, Router &router, const VcMap &vc_map,
                     const NiParams &params, NetStats &stats,
                     NiSlabs *slab = nullptr, unsigned slab_index = 0);

    NodeId node() const { return node_; }

    void setSink(PacketSink *sink) { sink_ = sink; }

    /** Registers this NI in its network's active set (idle-skip). */
    void
    setActivity(ActiveSet *set, unsigned idx)
    {
        active_set_ = set;
        active_idx_ = idx;
    }

    /** Points packet arrivals/departures at the owning network's
     *  in-flight counter, making Network::drained() O(1). */
    void setInFlightCounter(std::uint64_t *c) { inflight_ = c; }

    /**
     * Points per-flit router entry/exit at two monotone network-level
     * counters.  Their difference is the exact flit population of the
     * network (router buffers + channels + ejection buffers), checked
     * by the invariant checker; their sum is a per-network progress
     * signal for the deadlock watchdog (NetStats totals are shared
     * between double-network slices and cannot serve either purpose).
     */
    void
    setNetFlitCounters(std::uint64_t *injected, std::uint64_t *ejected)
    {
        net_flits_in_ = injected;
        net_flits_out_ = ejected;
    }

    /** Snapshot of queue/buffer bookkeeping for the checker. */
    NiAuditInfo audit() const;

    /** Attaches (or detaches, with nullptr) a flit-event tracer. */
    void setTracer(telemetry::TraceSink *tracer) { tracer_ = tracer; }

    /** @return true if one more packet fits in the class queue. */
    bool canInject(int proto_class) const;

    /** @return free packet slots in the class queue. */
    unsigned injectSpace(int proto_class) const;

    /** Queues a packet (route must already be initialized). */
    void enqueue(PacketPtr pkt, Cycle now);

    /** Streams flits into the router; call once per icnt cycle. */
    void injectPhase(Cycle now);

    /** Drains ejection buffers into the node; once per icnt cycle. */
    void drainPhase(Cycle now);

    // EjectionSink
    bool ejectReady(unsigned ej_port) const override;
    void ejectFlit(unsigned ej_port, Flit &&flit, Cycle now) override;

    /** @return true when all queues and buffers are empty. */
    bool idle() const;

    // --- checkpoint/restore ---
    /** Serializes all dynamic NI state.  Must be called at a cycle
     *  boundary. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(). */
    void restore(SnapshotReader &r);

  private:
    /** Tries to assign one queued packet to a free (port, vc) slot. */
    bool refillOne(Cycle now);

    NodeId node_;
    Router &router_;
    VcMap vc_map_;
    NiParams params_;
    NetStats &stats_;
    PacketSink *sink_ = nullptr;
    telemetry::TraceSink *tracer_ = nullptr;
    ActiveSet *active_set_ = nullptr;
    unsigned active_idx_ = 0;
    std::uint64_t *inflight_ = nullptr;
    std::uint64_t *net_flits_in_ = nullptr;
    std::uint64_t *net_flits_out_ = nullptr;

    /**
     * SoA hot state: injection class queues, one in-flight packet per
     * (injection port, VC) — which removes NI head-of-line blocking
     * while keeping the 1 flit/cycle/port terminal bandwidth that
     * multi-port MC routers raise — and per-port ejection rings, all
     * stored in a NiSlabs arena (network-owned, or the private
     * `owned_nslab_` for standalone NIs).  The pending-inject and
     * ejection-occupancy counters live there too, so the network's
     * phase loops early-out with one contiguous array read per NI.
     */
    std::unique_ptr<NiSlabs> owned_nslab_;
    NiSlabs *nslab_ = nullptr;
    unsigned ni_ = 0;       ///< index into the arena's per-NI arrays
    std::size_t qbase_ = 0; ///< first class-queue index (ni * classes)
    std::size_t sbase_ = 0; ///< first active-slot index
    std::size_t ebase_ = 0; ///< first ejection-ring index
    unsigned ports_ = 0;    ///< injection ports
    unsigned ej_ports_ = 0; ///< ejection ports
    unsigned vcs_ = 0;      ///< VCs per port

    std::vector<unsigned> lane_rr_;                 ///< per class
    std::vector<unsigned> vc_rr_;                   ///< per port
    unsigned class_rr_ = 0;
    unsigned port_rr_ = 0;
};

} // namespace tenoc

#endif // TENOC_NOC_NETWORK_INTERFACE_HH
