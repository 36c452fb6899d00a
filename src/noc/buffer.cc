/**
 * @file
 * InputPort implementation.
 */

#include "noc/buffer.hh"

#include "common/snapshot.hh"

namespace tenoc
{

InputPort::InputPort(unsigned vcs, unsigned depth)
    : owned_(std::make_unique<VcSlabs>()), slab_(owned_.get()),
      base_(0), nvcs_(vcs), depth_(depth), word_base_(0),
      words_((vcs + 63) / 64), first_bit_(0)
{
    tenoc_assert(vcs >= 1 && depth >= 1, "bad input port geometry");
    owned_->configure(vcs, 0, depth);
    VcSlabs::reserveWords(owned_->readyWords, NUM_READY_SETS * words_);
}

InputPort::InputPort(VcSlabs &slab, std::size_t base, unsigned vcs,
                     unsigned depth, std::size_t word_base,
                     unsigned words, unsigned first_bit)
    : slab_(&slab), base_(base), nvcs_(vcs), depth_(depth),
      word_base_(word_base), words_(words), first_bit_(first_bit)
{
    tenoc_assert(vcs >= 1 && depth >= 1, "bad input port geometry");
    if (word_base == OWN_WORDS) {
        words_ = (vcs + 63) / 64;
        word_base_ = VcSlabs::reserveWords(slab.readyWords,
                                           NUM_READY_SETS * words_);
    }
    tenoc_assert(slab.depth() == depth &&
                     base + vcs <= slab.numInputVcs() &&
                     first_bit_ + vcs <= words_ * 64 &&
                     word_base_ + NUM_READY_SETS * words_ <=
                         slab.readyWords.size(),
                 "input port view exceeds slab");
}

void
InputPort::push(Flit &&flit, Cycle now)
{
    tenoc_assert(flit.vc < nvcs_, "push to out-of-range VC ", flit.vc);
    tenoc_assert(slab_->ringCount[base_ + flit.vc] < depth_,
                 "VC buffer overflow (credit protocol violated), vc=",
                 flit.vc);
    flit.enqueueCycle = now;
    const unsigned vc = flit.vc;
#if defined(__GNUC__) || defined(__clang__)
    // An arriving head flit will be dereferenced by route computation
    // later this cycle; its Packet lives at an arbitrary heap address,
    // so start pulling the line in now (no architectural effect).
    if (flit.head)
        __builtin_prefetch(flit.pkt.get(), 0, 2);
#endif
    slab_->pushFlit(base_ + vc, std::move(flit));
    ++total_;
    if (slab_->ringCount[base_ + vc] == 1)
        syncReady(vc);
}

Flit
InputPort::pop(unsigned vc)
{
    tenoc_assert(slab_->ringCount[base_ + vc] != 0,
                 "pop() on empty VC");
    --total_;
    Flit f = slab_->popFlit(base_ + vc);
    if (slab_->ringCount[base_ + vc] == 0)
        syncReady(vc);
    return f;
}

void
InputPort::save(SnapshotWriter &w) const
{
    w.tag("INPT");
    w.u64(nvcs_);
    for (unsigned vc = 0; vc < nvcs_; ++vc) {
        const std::size_t idx = base_ + vc;
        w.u8(static_cast<std::uint8_t>(slab_->inState[idx]));
        w.u32(slab_->inOutPort[idx]);
        w.u32(slab_->inOutVc[idx]);
        w.u64(slab_->ringCount[idx]);
        slab_->forEachRingFlit(idx,
                               [&](const Flit &flit) { saveFlit(w, flit); });
    }
}

void
InputPort::restore(SnapshotReader &r, unsigned num_outputs)
{
    r.tag("INPT");
    const std::uint64_t vcs = r.u64();
    tenoc_assert(vcs == nvcs_, "input-port VC count mismatch");
    total_ = 0;
    for (unsigned vc = 0; vc < nvcs_; ++vc) {
        const std::size_t idx = base_ + vc;
        // ROUTING is never entered, and a VC in any state no stage
        // serves would hang the network; an out-of-range route would
        // index past the router's output arrays.
        const std::uint8_t state = r.u8();
        const std::uint32_t out_port = r.u32();
        const std::uint32_t out_vc = r.u32();
        const auto s = static_cast<VcState>(state);
        if (s != VcState::IDLE && s != VcState::VC_ALLOC &&
            s != VcState::ACTIVE) {
            tenoc_fatal("snapshot: input VC ", vc, " has invalid state ",
                        unsigned{state});
        }
        if (s != VcState::IDLE &&
            (out_port >= num_outputs || out_vc >= nvcs_)) {
            tenoc_fatal("snapshot: input VC ", vc, " routes to output (",
                        out_port, ", ", out_vc, ") outside ", num_outputs,
                        " ports x ", nvcs_, " VCs");
        }
        slab_->inState[idx] = s;
        slab_->inOutPort[idx] = out_port;
        slab_->inOutVc[idx] = out_vc;
        slab_->ringHead[idx] = 0;
        slab_->ringCount[idx] = 0;
        const std::uint64_t flits = r.u64();
        tenoc_assert(flits <= depth_, "restored VC overflows buffer");
        for (std::uint64_t i = 0; i < flits; ++i)
            slab_->pushFlit(idx, loadFlit(r));
        total_ += flits;
        syncReady(vc);
    }
}

} // namespace tenoc
