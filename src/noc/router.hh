/**
 * @file
 * Virtual-channel wormhole router.
 *
 * Canonical input-queued VC router with credit-based flow control and
 * separable (iSLIP-style) allocation, per Table III of the paper:
 *
 *   - per-packet route computation (RC) at the head flit,
 *   - VC allocation (VA): output-side round-robin among waiting heads,
 *   - switch allocation (SA): input-first round-robin, then
 *     output-side round-robin,
 *   - switch traversal (ST): one flit per input and per output per
 *     cycle, credits decremented on departure and returned upstream
 *     when flits leave this router's input buffers.
 *
 * Pipeline depth is modeled as a minimum residency: a flit arriving at
 * cycle t departs no earlier than t + depth, so arrival-to-arrival hop
 * latency is depth + channelLatency (5 cycles for the baseline).  The
 * baseline full router uses depth 4, half-routers depth 3 (Sec. V-A),
 * the aggressive router of Sec. III-C depth 1.
 *
 * Half-routers (Fig. 13) restrict connectivity: through traffic may
 * only continue straight (E<->W, N<->S), while injection reaches all
 * outputs and all inputs reach ejection.
 *
 * Multi-port MC routers (Sec. IV-D, Fig. 15(b)) add extra injection
 * and/or ejection ports that raise terminal bandwidth without touching
 * link bandwidth.  Ejection-port choice is round-robin at RC time.
 *
 * Storage layout: all per-VC state (input state machines, flit rings,
 * output VC ownership/credits) lives in a VcSlabs arena.  A router
 * built by MeshNetwork views contiguous index ranges of the network's
 * shared arena (see slab.hh); a standalone router owns a private one.
 * The router also keeps three stage-ready word sets over its input VCs
 * (RC-pending, VA-requesting, SA-candidate) and a word of free VCs per
 * output.  InputPort updates them on each transition that changes them,
 * so RC, VA and SA visit only the VCs they can serve: a stage whose
 * word is zero costs one load.  A router has at most 64 VCs per port
 * and at most 64 inputs, so an output's free VCs, one input's SA
 * candidates and one output's SA requestors each fit one word; only
 * the sets over all input VCs span several.
 */

#ifndef TENOC_NOC_ROUTER_HH
#define TENOC_NOC_ROUTER_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "noc/activity.hh"
#include "noc/arbiter.hh"
#include "noc/buffer.hh"
#include "noc/channel.hh"
#include "noc/routing.hh"
#include "noc/slab.hh"
#include "noc/topology.hh"
#include "noc/vc_map.hh"

namespace tenoc
{

namespace telemetry
{
class TraceSink;
} // namespace telemetry

/** Destination of ejected flits (implemented by NetworkInterface). */
class EjectionSink
{
  public:
    virtual ~EjectionSink() = default;
    /** @return true if one more flit fits in ejection buffer `port`. */
    virtual bool ejectReady(unsigned ej_port) const = 0;
    /** Delivers a flit to ejection buffer `port`. */
    virtual void ejectFlit(unsigned ej_port, Flit &&flit, Cycle now) = 0;
};

/** One mesh router. */
class Router
{
  public:
    struct Params
    {
        VcMap vcMap;
        unsigned vcDepth = 8;          ///< flit slots per VC (Table III)
        unsigned pipelineDepth = 4;    ///< min cycles of residency
        bool half = false;             ///< half-router connectivity
        unsigned numInjPorts = 1;
        unsigned numEjPorts = 1;
        /**
         * Age-based switch allocation: grant the contender whose
         * packet entered the network earliest instead of round-robin.
         * A global-fairness mechanism in the spirit of the work the
         * paper cites for WP's slowdown (Sec. V-B / [29]); off by
         * default (Table III uses iSLIP).
         */
        bool agePriority = false;
    };

    /** Standalone router owning its own slab storage (unit tests). */
    Router(NodeId id, const Topology &topo, RoutingAlgorithm &routing,
           const Params &params);

    /**
     * Router viewing a network-owned arena: input VCs
     * [in_vc_base, in_vc_base + numInputs*vcs) and output VCs
     * [out_vc_base, out_vc_base + numOutputs*vcs) of `slab`.
     */
    Router(NodeId id, const Topology &topo, RoutingAlgorithm &routing,
           const Params &params, VcSlabs &slab, std::size_t in_vc_base,
           std::size_t out_vc_base);

    NodeId id() const { return id_; }
    const Params &params() const { return params_; }
    unsigned numVcs() const { return nvcs_; }
    unsigned numInputs() const { return NUM_DIRS + params_.numInjPorts; }
    unsigned numOutputs() const { return NUM_DIRS + params_.numEjPorts; }

    /** Wires the output in direction `d` and its returning credits. */
    void connectOutput(Direction d, Channel<Flit> *flit_out,
                       Channel<Credit> *credit_in);
    /** Wires the input in direction `d` and its outgoing credits. */
    void connectInput(Direction d, Channel<Flit> *flit_in,
                      Channel<Credit> *credit_out);
    /** Attaches the local NI as the ejection sink. */
    void setEjectionSink(EjectionSink *sink) { sink_ = sink; }

    /**
     * Registers this router in its network's active set (idle-skip
     * scheduling).  The router marks itself whenever an NI injects a
     * flit; the arrival scheduler marks it when an item on one of its
     * channels matures (see setArrival).
     */
    void
    setActivity(ActiveSet *set, unsigned idx)
    {
        active_set_ = set;
        active_idx_ = idx;
    }

    /**
     * Registers this router with its network's arrival scheduler under
     * receiver index `idx`; channels connected afterwards post their
     * wakes to it.  readInputs drains only ports whose pending bit is
     * set — bit d for the flit link in direction d, bit NUM_DIRS+d for
     * the returning credit link of output d — so a router that
     * receives on channels needs a scheduler, set before connecting.
     */
    void
    setArrival(ArrivalScheduler *sched, unsigned idx)
    {
        arrival_sched_ = sched;
        arrival_idx_ = idx;
    }

    /** Pending-bit of the flit link arriving from direction `d`. */
    static constexpr std::uint32_t
    arrivalFlitBit(unsigned d)
    {
        return std::uint32_t{1} << d;
    }

    /** Pending-bit of the credit link returning on output `d`. */
    static constexpr std::uint32_t
    arrivalCreditBit(unsigned d)
    {
        return std::uint32_t{1} << (NUM_DIRS + d);
    }

    /** Points router traversals at a network-level running counter so
     *  telemetry can sample total flit hops without re-summing. */
    void setTraversalCounter(std::uint64_t *c) { net_traversed_ = c; }

    /**
     * @return true while this router may still have work: flits
     * buffered, or a matured, undrained arrival (a pending bit).
     * Items merely in flight do not count: the arrival scheduler wakes
     * the router on their delivery cycle.  Used to retire routers from
     * the active set; a router for which this is false performs no
     * state change when ticked, so skipping it is bit-exact.
     */
    bool couldWork() const;

    /**
     * @return the pending bits of attached channels whose front item
     * has matured (arrival <= min(now, the wheel's fired horizon)) but
     * whose bit is clear in this router's pending word.  Always zero
     * unless a wheel entry was lost: readInputs keeps the bit of every
     * port it leaves a matured item on.  Used by the invariant
     * checker's activity audit.
     */
    std::uint32_t lostArrivals(Cycle now) const;

    // --- NI injection access (same node, zero-latency handshake) ---
    /** Free slots in injection-port buffer `inj` (0-based), VC `vc`. */
    unsigned injFreeSlots(unsigned inj, unsigned vc) const;
    /** Pushes a flit into injection-port buffer `inj`. */
    void injectFlit(unsigned inj, Flit &&flit, Cycle now);

    // --- simulation phases (network drives these each icnt cycle) ---
    /** Phase 1: drain arriving flits and credits from channels. */
    void readInputs(Cycle now);
    /** Phase 2: RC, VA, SA, ST.  A router with nothing buffered is a
     *  no-op: every stage-ready word is zero. */
    void compute(Cycle now);

    /** @return true if no flits are buffered here (O(inputs)). */
    bool empty() const;

    /** @return true if input `in` may be switched to output `out`. */
    bool connectivityAllows(unsigned in, unsigned out) const;

    // --- stats ---
    std::uint64_t flitsTraversed() const { return flits_traversed_; }
    std::uint64_t bufferedFlits() const;

    /** Flits sent on the outgoing link in direction `d` (per-link
     *  utilization; ejection traffic is not counted here). */
    std::uint64_t linkFlits(unsigned d) const { return link_flits_[d]; }

    /** Attaches (or detaches, with nullptr) a flit-event tracer. */
    void setTracer(telemetry::TraceSink *tracer) { tracer_ = tracer; }

    // --- introspection (invariant checker / watchdog / tests) ---
    /** Pipeline state of input VC (`in`, `vc`). */
    VcState vcState(unsigned in, unsigned vc) const
    {
        return inputs_[in].state(vc);
    }
    /** Output port assigned to input VC (`in`, `vc`) by RC. */
    unsigned vcOutPort(unsigned in, unsigned vc) const
    {
        return inputs_[in].outPort(vc);
    }
    /** Output VC granted to input VC (`in`, `vc`) by VA. */
    unsigned vcOutVc(unsigned in, unsigned vc) const
    {
        return inputs_[in].outVc(vc);
    }
    /** Flits buffered on input VC (`in`, `vc`). */
    std::size_t vcOccupancy(unsigned in, unsigned vc) const
    {
        return inputs_[in].occupancy(vc);
    }
    /** Head flit of input VC (`in`, `vc`), or nullptr when empty. */
    const Flit *
    vcFront(unsigned in, unsigned vc) const
    {
        return inputs_[in].empty(vc) ? nullptr : &inputs_[in].front(vc);
    }
    /** Credits held for downstream VC (`out`, `vc`). */
    unsigned outputCredits(unsigned out, unsigned vc) const
    {
        return slab_->outCredits[ov(out, vc)];
    }
    /** Word `w` of stage-ready set `s` (bit in * vcs + vc). */
    std::uint64_t readyWord(ReadySet s, unsigned w) const
    {
        return ready(s)[w];
    }
    /** Output `out`'s free-VC word (bit v = VC v unowned). */
    std::uint64_t freeVcWord(unsigned out) const
    {
        return slab_->freeVcWords[free_base_ + out];
    }
    /** @return true if output VC (`out`, `vc`) is owned by a packet. */
    bool outputVcOwned(unsigned out, unsigned vc) const
    {
        return slab_->outOwned[ov(out, vc)] != 0;
    }
    /** Owning input port of output VC (`out`, `vc`) (owned only). */
    unsigned outputVcOwnerIn(unsigned out, unsigned vc) const
    {
        return slab_->outOwnerIn[ov(out, vc)];
    }
    /** Owning input VC of output VC (`out`, `vc`) (owned only). */
    unsigned outputVcOwnerVc(unsigned out, unsigned vc) const
    {
        return slab_->outOwnerVc[ov(out, vc)];
    }
    /** @return true if direction output `d` is wired to a channel. */
    bool
    outputConnected(unsigned d) const
    {
        return d < NUM_DIRS && outputs_[d].flitOut != nullptr;
    }
    /** Calls f(in, vc, flit) for every buffered flit. */
    template <typename F>
    void
    forEachBufferedFlit(F &&f) const
    {
        for (unsigned in = 0; in < numInputs(); ++in) {
            inputs_[in].forEachFlit(
                [&](unsigned vc, const Flit &flit) { f(in, vc, flit); });
        }
    }

    // --- checkpoint/restore ---
    /** Serializes all dynamic router state (buffers, VC ownership,
     *  credits, arbiter pointers, counters). */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save(); structural parameters must
     *  match the saving router. */
    void restore(SnapshotReader &r);

    // --- fault hooks (FaultEngine / mutation tests) ---
    /**
     * Deliberately leaks one downstream credit on output VC
     * (`out`, `vc`): the buffer slot it represents is never usable
     * again.  No-op at zero credits.  @return true if a credit was
     * dropped.
     */
    bool
    dropCredit(unsigned out, unsigned vc)
    {
        auto &credits = slab_->outCredits[ov(out, vc)];
        if (credits == 0)
            return false;
        --credits;
        return true;
    }

    /**
     * Flips input VC (`in`, `vc`)'s bit in stage-ready set `s`,
     * desynchronizing it from the VC state (invariant mutation tests).
     */
    void
    flipReadyBit(ReadySet s, unsigned in, unsigned vc)
    {
        const unsigned i = in * nvcs_ + vc;
        slab_->readyWords[ready_base_ + s * words_ + (i >> 6)] ^=
            std::uint64_t{1} << (i & 63);
    }

  private:
    void initPorts();
    /** Recomputes every output's free-VC words from outOwned. */
    void rebuildFreeVcs();

    // Pipeline stages, run in this order by compute().  Each reads only
    // the set bits of its stage-ready word.
    /** RC: assign output ports to idle VCs with buffered heads. */
    void routeCompute();
    /** VA: round-robin output-VC grants to routed head flits. */
    void vcAllocate(Cycle now);
    /** SA + ST: separable switch allocation, then traversal. */
    void switchAllocate(Cycle now);

    /** Grants requestor `idx` (in * vcs + vc) the lowest free output VC
     *  of its class on output `o`, if there is one. */
    void grantVc(unsigned o, unsigned idx, Cycle now);
    /** @return true if the front flit of (`port`, `vc`) may traverse
     *  this cycle: pipeline residency served, downstream space. */
    bool saEligible(const InputPort &port, unsigned vc, Cycle now) const;
    /** ST: moves the front flit of (`in`, `vc`) out through `o`. */
    void traverse(unsigned in, unsigned vc, unsigned o, Cycle now);

    /** First word of stage-ready set `s`. */
    const std::uint64_t *
    ready(ReadySet s) const
    {
        return slab_->readyWords.data() + ready_base_ + s * words_;
    }
    /** Free-VC word of output `out`. */
    std::uint64_t &
    freeVcs(unsigned out)
    {
        return slab_->freeVcWords[free_base_ + out];
    }

    bool isInjection(unsigned in) const { return in >= NUM_DIRS; }
    bool isEjection(unsigned out) const { return out >= NUM_DIRS; }

    /** Global slab index of output VC (`out`, `vc`). */
    std::size_t ov(unsigned out, unsigned vc) const
    {
        return out_base_ + out * nvcs_ + vc;
    }

    /** Chooses an ejection output port round-robin. */
    unsigned nextEjectionPort();

    NodeId id_;
    const Topology &topo_;
    RoutingAlgorithm &routing_;
    Params params_;
    unsigned nvcs_;
    EjectionSink *sink_ = nullptr;

    // Private arena for standalone routers; null when viewing the
    // network's shared slab.  Declared before the views into it.
    std::unique_ptr<VcSlabs> owned_slab_;
    VcSlabs *slab_;
    std::size_t in_base_;  ///< first global input-VC index
    std::size_t out_base_; ///< first global output-VC index
    std::size_t ready_base_ = 0; ///< first stage-ready word
    std::size_t free_base_ = 0;  ///< first free-VC word

    std::vector<InputPort> inputs_;

    struct OutputPort
    {
        Channel<Flit> *flitOut = nullptr;   ///< null for ejection ports
        Channel<Credit> *creditIn = nullptr;
        RoundRobinArbiter vaArb;  ///< VC-allocation arbiter
        RoundRobinArbiter saArb;  ///< switch output arbiter
    };
    std::vector<OutputPort> outputs_;

    struct InputLink
    {
        Channel<Flit> *flitIn = nullptr;
        Channel<Credit> *creditOut = nullptr;
    };
    std::vector<InputLink> in_links_;

    std::vector<RoundRobinArbiter> sa_input_arb_; ///< per input port
    unsigned ej_rr_ = 0;

    std::uint64_t flits_traversed_ = 0;
    std::uint64_t *net_traversed_ = nullptr;
    std::array<std::uint64_t, NUM_DIRS> link_flits_{};
    telemetry::TraceSink *tracer_ = nullptr;

    ActiveSet *active_set_ = nullptr;
    unsigned active_idx_ = 0;
    ArrivalScheduler *arrival_sched_ = nullptr;
    unsigned arrival_idx_ = 0;

    /** Words per input-VC set (stage-ready, VA requestors). */
    unsigned words_ = 1;

    // Allocation scratch, hoisted out of the per-cycle loops so the
    // hot path performs no heap allocation.
    std::vector<std::uint64_t> sa_out_mask_; ///< per-output SA inputs
    /** Per-output VA requestor words: numOutputs * words_. */
    std::vector<std::uint64_t> va_reqs_;
    std::vector<unsigned> sa_nominee_; ///< per input port
};

} // namespace tenoc

#endif // TENOC_NOC_ROUTER_HH
