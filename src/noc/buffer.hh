/**
 * @file
 * Per-input-port virtual channel buffers and VC bookkeeping.
 *
 * Since the structure-of-arrays refactor an InputPort is a *view*: the
 * actual VC state machines and flit storage live in a VcSlabs arena
 * (normally the owning network's; standalone ports for unit tests carry
 * a private one).  The public API is unchanged, so router pipeline
 * code, the invariant checker, golden shadow models and telemetry
 * samplers are oblivious to where the bytes live.
 */

#ifndef TENOC_NOC_BUFFER_HH
#define TENOC_NOC_BUFFER_HH

#include <memory>

#include "common/log.hh"
#include "noc/flit.hh"
#include "noc/slab.hh"

namespace tenoc
{

/**
 * The buffers and per-VC state of one router input port.
 */
class InputPort
{
  public:
    /**
     * Standalone port owning its own storage (unit tests, ad-hoc use).
     *
     * @param vcs number of virtual channels
     * @param depth flit slots per VC
     */
    InputPort(unsigned vcs, unsigned depth);

    /** word_base value asking a view to reserve its own words. */
    static constexpr std::size_t OWN_WORDS = ~std::size_t{0};

    /**
     * View of `vcs` consecutive input VCs starting at global index
     * `base` inside `slab` (which must already be configured with ring
     * depth `depth` and at least `base + vcs` input VCs).  A router's
     * port keeps its stage-ready bits at bits [first_bit, first_bit +
     * vcs) of the router's `words`-word sets starting at
     * slab.readyWords[word_base]; with OWN_WORDS the port reserves its
     * own.
     */
    InputPort(VcSlabs &slab, std::size_t base, unsigned vcs,
              unsigned depth, std::size_t word_base = OWN_WORDS,
              unsigned words = 0, unsigned first_bit = 0);

    InputPort(InputPort &&) = default;
    InputPort &operator=(InputPort &&) = default;

    unsigned numVcs() const { return nvcs_; }
    unsigned depth() const { return depth_; }

    /** Buffers an arriving flit on its VC; panics on overflow. */
    void push(Flit &&flit, Cycle now);

    /** @return flits currently buffered on `vc`. */
    std::size_t
    occupancy(unsigned vc) const
    {
        return slab_->ringCount[base_ + vc];
    }

    /** @return free slots on `vc`. */
    unsigned
    freeSlots(unsigned vc) const
    {
        return depth_ - slab_->ringCount[base_ + vc];
    }

    bool empty(unsigned vc) const { return occupancy(vc) == 0; }

    /** @return the flit at the head of `vc` (must be non-empty). */
    const Flit &front(unsigned vc) const
    {
        return slab_->frontFlit(base_ + vc);
    }

    /** Removes and returns the head flit of `vc`. */
    Flit pop(unsigned vc);

    /** Per-VC pipeline state. */
    VcState state(unsigned vc) const { return slab_->inState[base_ + vc]; }
    void
    setState(unsigned vc, VcState s)
    {
        slab_->inState[base_ + vc] = s;
        syncReady(vc);
    }

    /** Output port assigned by route computation. */
    unsigned outPort(unsigned vc) const
    {
        return slab_->inOutPort[base_ + vc];
    }
    void setOutPort(unsigned vc, unsigned p)
    {
        slab_->inOutPort[base_ + vc] = p;
    }

    /** Output VC granted by VC allocation. */
    unsigned outVc(unsigned vc) const { return slab_->inOutVc[base_ + vc]; }
    void setOutVc(unsigned vc, unsigned v)
    {
        slab_->inOutVc[base_ + vc] = v;
    }

    /** Head packet's first eligible output VC, cached by RC (derived
     *  state; only meaningful while the VC is in VC_ALLOC/ACTIVE). */
    unsigned baseVc(unsigned vc) const
    {
        return slab_->inBaseVc[base_ + vc];
    }
    void setBaseVc(unsigned vc, unsigned b)
    {
        slab_->inBaseVc[base_ + vc] = b;
    }

    /** Total flits buffered across all VCs (O(1), kept by push/pop). */
    std::size_t totalOccupancy() const { return total_; }

    /** Calls f(vc, flit) for every buffered flit, head first per VC. */
    template <typename F>
    void
    forEachFlit(F &&f) const
    {
        for (unsigned vc = 0; vc < nvcs_; ++vc)
            slab_->forEachRingFlit(
                base_ + vc, [&](const Flit &flit) { f(vc, flit); });
    }

    /** Serializes buffered flits and per-VC pipeline state. */
    void save(SnapshotWriter &w) const;

    /**
     * Restores state written by save() into this (empty) port and
     * rebuilds its stage-ready bits.  Fatal on a VC state outside
     * IDLE/VC_ALLOC/ACTIVE, or on a non-idle VC whose output port is
     * >= `num_outputs` or whose output VC is >= numVcs().
     */
    void restore(SnapshotReader &r, unsigned num_outputs);

  private:
    /** Recomputes the three stage-ready bits of `vc` from its state
     *  and ring count. */
    void
    syncReady(unsigned vc)
    {
        const std::size_t idx = base_ + vc;
        const unsigned bit = first_bit_ + vc;
        std::uint64_t *w =
            slab_->readyWords.data() + word_base_ + (bit >> 6);
        const std::uint64_t m = std::uint64_t{1} << (bit & 63);
        const VcState s = slab_->inState[idx];
        const bool buffered = slab_->ringCount[idx] != 0;
        const auto put = [&](ReadySet set, bool on) {
            std::uint64_t &x = w[set * words_];
            x = on ? x | m : x & ~m;
        };
        put(RC_READY, s == VcState::IDLE && buffered);
        put(VA_READY, s == VcState::VC_ALLOC);
        put(SA_READY, s == VcState::ACTIVE && buffered);
    }

    // When standalone, the port's private arena; null for views.
    // Declared before slab_ so the view pointer can target it.
    std::unique_ptr<VcSlabs> owned_;
    VcSlabs *slab_;
    std::size_t base_;
    unsigned nvcs_;
    unsigned depth_;
    std::size_t total_ = 0;
    std::size_t word_base_; ///< first stage-ready word (RC set)
    unsigned words_;        ///< words per stage-ready set
    unsigned first_bit_;    ///< bit of VC 0 within the sets
};

} // namespace tenoc

#endif // TENOC_NOC_BUFFER_HH
