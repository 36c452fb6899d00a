/**
 * @file
 * Structure-of-arrays storage for the mesh hot state.
 *
 * All per-(router, port, VC) state of one network lives in flat
 * parallel arrays owned by a single VcSlabs arena instead of
 * pointer-rich per-object storage:
 *
 *   - input-VC state machines: pipeline state, assigned output port,
 *     granted output VC — one contiguous array each, indexed by a
 *     global input-VC index (router's base + port * vcs + vc),
 *   - flit buffers: one ring of `vcDepth` slots per input VC, all
 *     rings packed back to back in one flit slab (ring i occupies
 *     slots [i*depth, (i+1)*depth)),
 *   - output-VC bookkeeping: owned flag, owning input (port, VC) and
 *     credit count, indexed by a global output-VC index,
 *   - stage-ready words: per-router bit sets over the router's local
 *     input-VC index (port * vcs + vc) naming the VCs each pipeline
 *     stage must serve, plus per-output words of unowned output VCs.
 *     Each router reserves its own words, so no two routers (and no
 *     two parallel-engine shards) ever write the same word.
 *
 * Routers receive contiguous index ranges in node order at network
 * construction, so the ActiveSet's ascending-index iteration streams
 * the arrays front to back and the parallel engine's shard boundaries
 * (contiguous node ranges) partition the slabs into disjoint
 * contiguous blocks.  Standalone routers (unit tests) own a private
 * arena with the same layout.
 *
 * The arena is pure storage: every state-machine transition still
 * happens in Router/InputPort code, so the refactor is invisible to
 * stats, snapshots and the invariant checker.
 */

#ifndef TENOC_NOC_SLAB_HH
#define TENOC_NOC_SLAB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "noc/flit.hh"

namespace tenoc
{

/** Pipeline state of one input virtual channel. */
enum class VcState : std::uint8_t
{
    IDLE,     ///< no packet being routed through this VC
    ROUTING,  ///< head flit buffered, awaiting route computation
    VC_ALLOC, ///< route known, awaiting an output VC
    ACTIVE    ///< output VC held; flits may traverse the switch
};

/**
 * Stage-ready word sets of one router, each over its local input-VC
 * index: RC-pending (IDLE with a buffered flit), VA-requesting
 * (VC_ALLOC) and SA-candidate (ACTIVE with a buffered flit).  They are
 * derived from the state and ring-count arrays and kept in step by
 * InputPort on every transition that can change them.
 */
enum ReadySet : unsigned
{
    RC_READY,
    VA_READY,
    SA_READY,
    NUM_READY_SETS
};

/** SoA arena for one network's router/VC/flit hot state. */
class VcSlabs
{
  public:
    VcSlabs() = default;

    /**
     * Allocates (or re-initializes, reusing capacity) storage for
     * `input_vcs` input VCs with `depth`-flit rings and `output_vcs`
     * output VCs.  All state resets to IDLE/unowned/zero-credit, and
     * every reserved word set is released.
     */
    void
    configure(std::size_t input_vcs, std::size_t output_vcs,
              unsigned depth)
    {
        tenoc_assert(depth >= 1, "slab ring depth must be >= 1");
        depth_ = depth;
        inState.assign(input_vcs, VcState::IDLE);
        inOutPort.assign(input_vcs, 0);
        inOutVc.assign(input_vcs, 0);
        inBaseVc.assign(input_vcs, 0);
        ringHead.assign(input_vcs, 0);
        ringCount.assign(input_vcs, 0);
        // Rings of a re-used arena may still hold flits (and thus
        // packet references) from the previous configuration; assign()
        // on the vector releases them.
        flits.assign(input_vcs * depth, Flit{});
        outOwned.assign(output_vcs, 0);
        outOwnerIn.assign(output_vcs, 0);
        outOwnerVc.assign(output_vcs, 0);
        outCredits.assign(output_vcs, 0);
        readyWords.clear();
        freeVcWords.clear();
    }

    /** Appends `n` zeroed words to `words`; @return the first's index.
     *  Routers and ports reserve their word sets this way at
     *  construction. */
    static std::size_t
    reserveWords(std::vector<std::uint64_t> &words, std::size_t n)
    {
        const std::size_t base = words.size();
        words.resize(base + n, 0);
        return base;
    }

    unsigned depth() const { return depth_; }
    std::size_t numInputVcs() const { return inState.size(); }
    std::size_t numOutputVcs() const { return outOwned.size(); }

    /**
     * Arms out-of-range index checking on the ring operations (the
     * state arrays are accessed through already-checked ring indices).
     * Wired to MeshNetworkParams::validate / TENOC_VALIDATE=1.
     */
    void setValidate(bool on) { validate_ = on; }
    bool validate() const { return validate_; }

    // --- flit rings (index = global input-VC index) ---

    /** Appends a flit to ring `vc_idx`; panics on overflow (a credit
     *  protocol violation). */
    void
    pushFlit(std::size_t vc_idx, Flit &&flit)
    {
        if (validate_) {
            tenoc_assert(vc_idx < ringCount.size(),
                         "slab input-VC index ", vc_idx,
                         " out of range ", ringCount.size());
        }
        const std::uint32_t count = ringCount[vc_idx];
        tenoc_assert(count < depth_,
                     "VC buffer overflow (credit protocol violated),"
                     " slab vc index=", vc_idx);
        std::size_t pos = ringHead[vc_idx] + count;
        if (pos >= depth_)
            pos -= depth_;
        flits[vc_idx * depth_ + pos] = std::move(flit);
        ringCount[vc_idx] = count + 1;
    }

    /** Removes and returns the head flit of ring `vc_idx`. */
    Flit
    popFlit(std::size_t vc_idx)
    {
        if (validate_) {
            tenoc_assert(vc_idx < ringCount.size(),
                         "slab input-VC index ", vc_idx,
                         " out of range ", ringCount.size());
        }
        tenoc_assert(ringCount[vc_idx] != 0, "pop() on empty VC");
        const std::uint32_t head = ringHead[vc_idx];
        Flit f = std::move(flits[vc_idx * depth_ + head]);
        ringHead[vc_idx] = head + 1 == depth_ ? 0 : head + 1;
        --ringCount[vc_idx];
        return f;
    }

    /** Head flit of ring `vc_idx` (must be non-empty). */
    const Flit &
    frontFlit(std::size_t vc_idx) const
    {
        tenoc_assert(ringCount[vc_idx] != 0, "front() on empty VC");
        return flits[vc_idx * depth_ + ringHead[vc_idx]];
    }

    /** Calls f(flit) for each flit of ring `vc_idx`, head first. */
    template <typename F>
    void
    forEachRingFlit(std::size_t vc_idx, F &&f) const
    {
        const std::size_t base = vc_idx * depth_;
        std::size_t pos = ringHead[vc_idx];
        for (std::uint32_t i = 0; i < ringCount[vc_idx]; ++i) {
            f(flits[base + pos]);
            if (++pos == depth_)
                pos = 0;
        }
    }

    // --- input-VC state machines ---
    std::vector<VcState> inState;
    std::vector<std::uint32_t> inOutPort; ///< RC-assigned output port
    std::vector<std::uint32_t> inOutVc;   ///< VA-granted output VC
    /// First eligible output VC of the head packet, cached by RC so VA
    /// never dereferences the packet.  Derived state: reconstructed on
    /// checkpoint restore, not part of the snapshot format.
    std::vector<std::uint32_t> inBaseVc;

    // --- output-VC bookkeeping ---
    std::vector<std::uint8_t> outOwned;
    std::vector<std::uint32_t> outOwnerIn;
    std::vector<std::uint32_t> outOwnerVc;
    std::vector<std::uint32_t> outCredits;

    // --- stage-ready words (derived; rebuilt on checkpoint restore) ---
    /// Per router, NUM_READY_SETS consecutive sets of W words each,
    /// W = ceil(router input VCs / 64); bit i of a set = local input
    /// VC i.
    std::vector<std::uint64_t> readyWords;
    /// Per router output port, ceil(vcs / 64) words; bit v set while
    /// output VC v is unowned.
    std::vector<std::uint64_t> freeVcWords;

    // --- flit rings ---
    std::vector<std::uint32_t> ringHead;
    std::vector<std::uint32_t> ringCount;
    std::vector<Flit> flits;

  private:
    unsigned depth_ = 1;
    bool validate_ = false;
};

/**
 * SoA arena for one network's NI hot state, mirroring VcSlabs: all
 * per-NI injection class queues, per-(port, VC) active-packet slots
 * and per-port ejection buffers live in flat parallel arrays indexed
 * in node order, replacing the per-object std::deque storage.  Every
 * container is a fixed-capacity ring (the NI protocol already bounds
 * class queues by injQueueCap and ejection ports by ejBufferFlits),
 * so the steady state touches no heap.  Injection-port and
 * ejection-port counts vary per node (multi-port MC routers), hence
 * the per-NI base offsets.  Standalone NIs (unit tests) own a private
 * arena with the same layout.
 */
class NiSlabs
{
  public:
    NiSlabs() = default;

    /**
     * Allocates (or re-initializes) storage for one NI per entry of
     * `inj_ports`/`ej_ports`: `classes` class queues of `inj_cap`
     * packets each, inj_ports[n] * `vcs` active slots, and ej_ports[n]
     * ejection rings of `ej_cap` flits.
     */
    void
    configure(const std::vector<unsigned> &inj_ports, unsigned vcs,
              unsigned classes, unsigned inj_cap,
              const std::vector<unsigned> &ej_ports, unsigned ej_cap)
    {
        tenoc_assert(inj_ports.size() == ej_ports.size(),
                     "NI slab port-count vectors disagree");
        tenoc_assert(classes >= 1 && inj_cap >= 1 && ej_cap >= 1,
                     "NI slab capacities must be >= 1");
        const std::size_t nis = inj_ports.size();
        classes_ = classes;
        inj_cap_ = inj_cap;
        ej_cap_ = ej_cap;
        slotBase.resize(nis);
        ejPortBase.resize(nis);
        std::size_t slots = 0, eports = 0;
        for (std::size_t n = 0; n < nis; ++n) {
            slotBase[n] = slots;
            ejPortBase[n] = eports;
            slots += std::size_t{inj_ports[n]} * vcs;
            eports += ej_ports[n];
        }
        pendingInject.assign(nis, 0);
        ejOccupancy.assign(nis, 0);
        const std::size_t queues = nis * classes;
        injQHead.assign(queues, 0);
        injQCount.assign(queues, 0);
        // assign() releases packet references a re-used arena may
        // still hold from its previous configuration.
        injQ.assign(queues * inj_cap, PacketPtr{});
        actValid.assign(slots, 0);
        actNext.assign(slots, 0);
        actPkt.assign(slots, PacketPtr{});
        actFlits.assign(slots, std::vector<Flit>{});
        ejHead.assign(eports, 0);
        ejCount.assign(eports, 0);
        ejFlits.assign(eports * ej_cap, Flit{});
    }

    unsigned classes() const { return classes_; }
    unsigned injCap() const { return inj_cap_; }
    unsigned ejCap() const { return ej_cap_; }

    // --- injection class queues (index = ni * classes + class) ---

    std::uint32_t qSize(std::size_t q) const { return injQCount[q]; }

    void
    qPush(std::size_t q, PacketPtr &&pkt)
    {
        const std::uint32_t count = injQCount[q];
        tenoc_assert(count < inj_cap_, "NI slab class-queue overflow");
        std::size_t pos = injQHead[q] + count;
        if (pos >= inj_cap_)
            pos -= inj_cap_;
        injQ[q * inj_cap_ + pos] = std::move(pkt);
        injQCount[q] = count + 1;
    }

    const PacketPtr &
    qFront(std::size_t q) const
    {
        tenoc_assert(injQCount[q] != 0, "front() on empty class queue");
        return injQ[q * inj_cap_ + injQHead[q]];
    }

    PacketPtr
    qPop(std::size_t q)
    {
        tenoc_assert(injQCount[q] != 0, "pop() on empty class queue");
        const std::uint32_t head = injQHead[q];
        PacketPtr p = std::move(injQ[q * inj_cap_ + head]);
        injQHead[q] = head + 1 == inj_cap_ ? 0 : head + 1;
        --injQCount[q];
        return p;
    }

    /** Calls f(pkt) for each queued packet of queue `q`, FIFO order. */
    template <typename F>
    void
    forEachQueued(std::size_t q, F &&f) const
    {
        const std::size_t base = q * inj_cap_;
        std::size_t pos = injQHead[q];
        for (std::uint32_t i = 0; i < injQCount[q]; ++i) {
            f(injQ[base + pos]);
            if (++pos == inj_cap_)
                pos = 0;
        }
    }

    // --- ejection rings (index = ejPortBase[ni] + port) ---

    std::uint32_t ejSize(std::size_t p) const { return ejCount[p]; }

    void
    ejPush(std::size_t p, Flit &&flit)
    {
        const std::uint32_t count = ejCount[p];
        tenoc_assert(count < ej_cap_, "NI slab ejection-ring overflow");
        std::size_t pos = ejHead[p] + count;
        if (pos >= ej_cap_)
            pos -= ej_cap_;
        ejFlits[p * ej_cap_ + pos] = std::move(flit);
        ejCount[p] = count + 1;
    }

    const Flit &
    ejFront(std::size_t p) const
    {
        tenoc_assert(ejCount[p] != 0, "front() on empty ejection ring");
        return ejFlits[p * ej_cap_ + ejHead[p]];
    }

    Flit
    ejPop(std::size_t p)
    {
        tenoc_assert(ejCount[p] != 0, "pop() on empty ejection ring");
        const std::uint32_t head = ejHead[p];
        Flit f = std::move(ejFlits[p * ej_cap_ + head]);
        ejHead[p] = head + 1 == ej_cap_ ? 0 : head + 1;
        --ejCount[p];
        return f;
    }

    /** Calls f(flit) for each buffered flit of ring `p`, FIFO order. */
    template <typename F>
    void
    forEachEjFlit(std::size_t p, F &&f) const
    {
        const std::size_t base = p * ej_cap_;
        std::size_t pos = ejHead[p];
        for (std::uint32_t i = 0; i < ejCount[p]; ++i) {
            f(ejFlits[base + pos]);
            if (++pos == ej_cap_)
                pos = 0;
        }
    }

    // --- per-NI counters (contiguous early-out scans) ---
    /// Packets queued or mid-injection at each NI.
    std::vector<std::uint32_t> pendingInject;
    /// Flits buffered across each NI's ejection ports.
    std::vector<std::uint32_t> ejOccupancy;

    // --- per-NI base offsets ---
    /// First active-slot index of each NI (slots = port * vcs + vc).
    std::vector<std::size_t> slotBase;
    /// First ejection-ring index of each NI.
    std::vector<std::size_t> ejPortBase;

    // --- active packet slots (index = slotBase[ni] + port*vcs + vc) ---
    std::vector<std::uint8_t> actValid;
    std::vector<std::uint32_t> actNext;
    std::vector<PacketPtr> actPkt;
    /// Flitized packet; cleared (capacity kept) when the slot frees.
    std::vector<std::vector<Flit>> actFlits;

    // --- injection class-queue rings ---
    std::vector<std::uint32_t> injQHead;
    std::vector<std::uint32_t> injQCount;
    std::vector<PacketPtr> injQ;

    // --- ejection rings ---
    std::vector<std::uint32_t> ejHead;
    std::vector<std::uint32_t> ejCount;
    std::vector<Flit> ejFlits;

  private:
    unsigned classes_ = 1;
    unsigned inj_cap_ = 1;
    unsigned ej_cap_ = 1;
};

} // namespace tenoc

#endif // TENOC_NOC_SLAB_HH
