/**
 * @file
 * Router implementation.
 */

#include "noc/router.hh"

#include <algorithm>
#include <bit>

#include "common/snapshot.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc
{

Router::Router(NodeId id, const Topology &topo,
               RoutingAlgorithm &routing, const Params &params)
    : id_(id), topo_(topo), routing_(routing), params_(params),
      nvcs_(params.vcMap.numVcs()),
      owned_slab_(std::make_unique<VcSlabs>()),
      slab_(owned_slab_.get()), in_base_(0), out_base_(0)
{
    tenoc_assert(params_.numInjPorts >= 1 && params_.numEjPorts >= 1,
                 "router needs at least one injection/ejection port");
    owned_slab_->configure(numInputs() * nvcs_, numOutputs() * nvcs_,
                           params_.vcDepth);
    initPorts();
}

Router::Router(NodeId id, const Topology &topo,
               RoutingAlgorithm &routing, const Params &params,
               VcSlabs &slab, std::size_t in_vc_base,
               std::size_t out_vc_base)
    : id_(id), topo_(topo), routing_(routing), params_(params),
      nvcs_(params.vcMap.numVcs()), slab_(&slab), in_base_(in_vc_base),
      out_base_(out_vc_base)
{
    tenoc_assert(params_.numInjPorts >= 1 && params_.numEjPorts >= 1,
                 "router needs at least one injection/ejection port");
    tenoc_assert(in_base_ + numInputs() * nvcs_ <= slab.numInputVcs() &&
                     out_base_ + numOutputs() * nvcs_ <=
                         slab.numOutputVcs() &&
                     slab.depth() == params_.vcDepth,
                 "router view exceeds slab at node ", id_);
    initPorts();
}

void
Router::initPorts()
{
    const unsigned vcs = nvcs_;
    words_ = (numInputs() * vcs + 63) / 64;
    vc_words_ = (vcs + 63) / 64;
    in_words_ = (numInputs() + 63) / 64;
    // This router's private stage-ready and free-VC words.
    ready_base_ = VcSlabs::reserveWords(slab_->readyWords,
                                        NUM_READY_SETS * words_);
    free_base_ = VcSlabs::reserveWords(slab_->freeVcWords,
                                       numOutputs() * vc_words_);
    rebuildFreeVcs();
    inputs_.reserve(numInputs());
    for (unsigned in = 0; in < numInputs(); ++in) {
        inputs_.emplace_back(*slab_, in_base_ + in * vcs, vcs,
                             params_.vcDepth, ready_base_, words_,
                             in * vcs);
    }
    outputs_.resize(numOutputs());
    in_links_.resize(NUM_DIRS);
    sa_input_arb_.assign(numInputs(), RoundRobinArbiter(vcs));
    mask_alloc_ = numInputs() * vcs <= 64;
    va_reqs_.resize(numOutputs() * words_);
    sa_out_mask_.resize(numOutputs());
    if (!mask_alloc_) {
        sa_vc_words_.resize(vc_words_);
        sa_out_words_.resize(numOutputs() * in_words_);
    }
    sa_nominee_.resize(numInputs());
    for (unsigned o = 0; o < numOutputs(); ++o) {
        outputs_[o].vaArb.resize(numInputs() * vcs);
        outputs_[o].saArb.resize(numInputs());
        // Output VC credits start at zero (slab configure() default):
        // mesh outputs gain vcDepth credits when wired via
        // connectOutput(); ejection capacity is governed by the NI
        // sink, not credits.
    }
}

void
Router::rebuildFreeVcs()
{
    for (unsigned o = 0; o < numOutputs(); ++o) {
        std::uint64_t *free = freeVcs(o);
        std::fill(free, free + vc_words_, 0);
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            if (!slab_->outOwned[ov(o, vc)])
                free[vc >> 6] |= std::uint64_t{1} << (vc & 63);
        }
    }
}

void
Router::connectOutput(Direction d, Channel<Flit> *flit_out,
                      Channel<Credit> *credit_in)
{
    tenoc_assert(d < NUM_DIRS, "invalid output direction");
    outputs_[d].flitOut = flit_out;
    outputs_[d].creditIn = credit_in;
    if (arrival_sched_ && credit_in)
        credit_in->setArrivalTarget(arrival_sched_, arrival_idx_,
                                    arrivalCreditBit(d));
    for (unsigned vc = 0; vc < nvcs_; ++vc)
        slab_->outCredits[ov(d, vc)] = params_.vcDepth;
}

void
Router::connectInput(Direction d, Channel<Flit> *flit_in,
                     Channel<Credit> *credit_out)
{
    tenoc_assert(d < NUM_DIRS, "invalid input direction");
    in_links_[d].flitIn = flit_in;
    in_links_[d].creditOut = credit_out;
    if (arrival_sched_ && flit_in)
        flit_in->setArrivalTarget(arrival_sched_, arrival_idx_,
                                  arrivalFlitBit(d));
}

void
Router::setArrival(ArrivalScheduler *sched, unsigned idx)
{
    arrival_sched_ = sched;
    arrival_idx_ = idx;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn)
            in_links_[d].flitIn->setArrivalTarget(sched, idx,
                                                  arrivalFlitBit(d));
        if (outputs_[d].creditIn)
            outputs_[d].creditIn->setArrivalTarget(sched, idx,
                                                   arrivalCreditBit(d));
    }
}

unsigned
Router::injFreeSlots(unsigned inj, unsigned vc) const
{
    return inputs_[NUM_DIRS + inj].freeSlots(vc);
}

void
Router::injectFlit(unsigned inj, Flit &&flit, Cycle now)
{
    inputs_[NUM_DIRS + inj].push(std::move(flit), now);
    if (active_set_)
        active_set_->mark(active_idx_);
}

bool
Router::connectivityAllows(unsigned in, unsigned out) const
{
    if (isInjection(in))
        return true; // injection reaches every output
    if (isEjection(out))
        return true;             // every input reaches ejection
    if (!params_.half) {
        // Full crossbar; U-turns are legal (non-minimal schemes such
        // as Valiant may reverse direction at their waypoint).
        return true;
    }
    // Half-router: through traffic must continue straight (Fig. 13).
    return out == opposite(static_cast<Direction>(in));
}

void
Router::readInputs(Cycle now)
{
    if (arrival_sched_) {
        // Event-driven drain: only ports whose pending bit fired have
        // a matured front entry; everything else is guaranteed to
        // deliver nothing, so skipping the receive() poll is exact.
        std::uint32_t bits = arrival_sched_->pending(arrival_idx_);
        if (bits == 0)
            return;
        std::uint32_t keep = 0;
        while (bits) {
            const auto b =
                static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            if (b < NUM_DIRS) {
                Channel<Flit> *ch = in_links_[b].flitIn;
                while (auto f = ch->receive(now))
                    inputs_[b].push(std::move(*f), now);
                // A stalled link keeps its matured backlog; the bit
                // stays pending so the router keeps polling (exactly
                // the cycles mark-on-send would have kept it awake).
                if (ch->earliestArrival() <= now)
                    keep |= arrivalFlitBit(b);
            } else {
                const unsigned d = b - NUM_DIRS;
                Channel<Credit> *ch = outputs_[d].creditIn;
                while (auto c = ch->receive(now))
                    ++slab_->outCredits[ov(d, c->vc)];
                if (ch->earliestArrival() <= now)
                    keep |= arrivalCreditBit(d);
            }
        }
        arrival_sched_->setPending(arrival_idx_, keep);
        return;
    }
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn) {
            while (auto f = in_links_[d].flitIn->receive(now))
                inputs_[d].push(std::move(*f), now);
        }
        if (outputs_[d].creditIn) {
            while (auto c = outputs_[d].creditIn->receive(now))
                ++slab_->outCredits[ov(d, c->vc)];
        }
    }
}

void
Router::compute(Cycle now)
{
    routeCompute();
    vcAllocate(now);
    switchAllocate(now);
}

namespace
{

/** Network entry time of a flit's packet (for age priority). */
Cycle
packetAge(const Flit &f)
{
    return f.pkt->injectedCycle != INVALID_CYCLE
        ? f.pkt->injectedCycle : f.pkt->createdCycle;
}

/**
 * Age-priority pick among the set bits of `words`: the requestor i
 * whose front flit `front_of(i)` belongs to the oldest packet, the
 * lowest i on ties, or `none` without requestors.
 */
template <typename FrontOf>
unsigned
oldestRequestor(const std::uint64_t *words, unsigned nwords,
                unsigned none, FrontOf &&front_of)
{
    unsigned win = none;
    Cycle best = INVALID_CYCLE;
    for (unsigned w = 0; w < nwords; ++w) {
        for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
            const unsigned i =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            const Cycle age = packetAge(front_of(i));
            if (win == none || age < best) {
                best = age;
                win = i;
            }
        }
    }
    return win;
}

/** @return true if any of the `n` words is nonzero. */
bool
anySet(const std::uint64_t *words, unsigned n)
{
    for (unsigned w = 0; w < n; ++w) {
        if (words[w] != 0)
            return true;
    }
    return false;
}

/** Lowest set bit of `words` in [lo, hi), or hi if there is none. */
unsigned
firstSetInRange(const std::uint64_t *words, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        const std::uint64_t w = words[lo >> 6] >> (lo & 63);
        if (w != 0) {
            return std::min(
                hi, lo + static_cast<unsigned>(std::countr_zero(w)));
        }
        lo = (lo | 63) + 1;
    }
    return hi;
}

} // namespace

unsigned
Router::nextEjectionPort()
{
    const unsigned p = ej_rr_ % params_.numEjPorts;
    ++ej_rr_;
    return NUM_DIRS + p;
}

void
Router::routeCompute()
{
    const unsigned vcs = nvcs_;
    const std::uint64_t *rc = ready(RC_READY);
    for (unsigned w = 0; w < words_; ++w) {
        // Each routed VC leaves the set (setState), so walk a copy.
        for (std::uint64_t m = rc[w]; m != 0; m &= m - 1) {
            const unsigned i =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            const unsigned in = i / vcs;
            const unsigned vc = i % vcs;
            auto &port = inputs_[in];
            const Flit &head = port.front(vc);
            tenoc_assert(head.head,
                         "non-head flit at front of idle VC (router ",
                         id_, " in ", in, " vc ", vc, ")");
            Packet &pkt = *head.pkt;
            unsigned out = routing_.route(id_, pkt);
            if (out == PORT_EJECT) {
                tenoc_assert(pkt.dst == id_,
                             "ejection at non-destination node");
                out = nextEjectionPort();
            } else {
                tenoc_assert(out < NUM_DIRS &&
                             topo_.neighbor(id_,
                                 static_cast<Direction>(out)) !=
                                 INVALID_NODE,
                             "route off mesh edge at node ", id_);
            }
            tenoc_assert(connectivityAllows(in, out),
                         "illegal turn at ", params_.half ? "half" :
                         "full", "-router ", id_, ": in=",
                         inputPortName(in), " out=", outputPortName(out));
            port.setOutPort(vc, out);
            // The packet is already hot here; caching its VC-class base
            // spares VC allocation the pointer chase entirely.
            port.setBaseVc(vc, params_.vcMap.baseVc(pkt));
            port.setState(vc, VcState::VC_ALLOC);
        }
    }
}

void
Router::grantVc(unsigned o, unsigned idx, Cycle now)
{
    const unsigned in = idx / nvcs_;
    const unsigned vc = idx % nvcs_;
    const unsigned base = inputs_[in].baseVc(vc);
    const unsigned end = base + params_.vcMap.vcsPerClass;
    std::uint64_t *free = freeVcs(o);
    const unsigned granted = firstSetInRange(free, base, end);
    // No eligible VC free: the requestor retries next cycle.  Other
    // requestors may still want different (protocol/routing class) VCs.
    if (granted == end)
        return;
    free[granted >> 6] &= ~(std::uint64_t{1} << (granted & 63));
    const std::size_t g = ov(o, granted);
    slab_->outOwned[g] = 1;
    slab_->outOwnerIn[g] = in;
    slab_->outOwnerVc[g] = vc;
    inputs_[in].setOutVc(vc, granted);
    inputs_[in].setState(vc, VcState::ACTIVE);
    outputs_[o].vaArb.accept(idx);
    if (tracer_) {
        const Packet &pkt = *inputs_[in].front(vc).pkt;
        if (tracer_->wants(pkt.id))
            tracer_->instant("va", id_, pkt.id, now);
    }
}

void
Router::vcAllocate(Cycle now)
{
    const std::uint64_t *va = ready(VA_READY);
    if (!anySet(va, words_))
        return;
    // Per-output requestor sets (bit i = input VC i wants this output)
    // from the set bits of the VA words.  A requestor whose VC class
    // has no free VC on its output is left out: its request would
    // fail, and a failed request moves no arbiter.  The grant loop
    // below consumes every bit, so the sets start each call empty.
    const unsigned n = numInputs() * nvcs_;
    const std::uint32_t *op = slab_->inOutPort.data() + in_base_;
    const std::uint32_t *base = slab_->inBaseVc.data() + in_base_;
    const unsigned per_class = params_.vcMap.vcsPerClass;
    for (unsigned w = 0; w < words_; ++w) {
        for (std::uint64_t m = va[w]; m != 0; m &= m - 1) {
            const unsigned i =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            const unsigned end = base[i] + per_class;
            if (firstSetInRange(freeVcs(op[i]), base[i], end) != end)
                va_reqs_[op[i] * words_ + w] |= std::uint64_t{1} << (i & 63);
        }
    }
    // Grant output VCs in round-robin requestor order; a request can
    // still fail when an earlier grant took its class's last free VC.
    for (unsigned o = 0; o < numOutputs(); ++o) {
        std::uint64_t *reqs = va_reqs_.data() + o * words_;
        if (!anySet(reqs, words_))
            continue;
        for (unsigned idx = outputs_[o].vaArb.grantWords(reqs, words_);
             idx < n; idx = outputs_[o].vaArb.grantWords(reqs, words_)) {
            reqs[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
            grantVc(o, idx, now);
        }
    }
}

inline bool
Router::saEligible(const InputPort &port, unsigned vc, Cycle now) const
{
    // A flit spends `pipelineDepth` cycles in the router (it departs no
    // earlier than arrival + depth), giving the paper's 5-cycle hops
    // for 4-stage routers + 1-cycle channels (Sec. III-B).
    if (port.front(vc).enqueueCycle + params_.pipelineDepth > now)
        return false; // still in the router pipeline
    const unsigned o = port.outPort(vc);
    if (isEjection(o)) {
        tenoc_assert(sink_, "no ejection sink attached");
        return sink_->ejectReady(o - NUM_DIRS);
    }
    return slab_->outCredits[ov(o, port.outVc(vc))] != 0;
}

void
Router::traverse(unsigned in, unsigned vc, unsigned o, Cycle now)
{
    Flit flit = inputs_[in].pop(vc);
    const unsigned out_vc = inputs_[in].outVc(vc);
    const bool tail = flit.tail;
    if (!isInjection(in) && in_links_[in].creditOut)
        in_links_[in].creditOut->send(Credit{flit.vc}, now);
    if (tracer_ && flit.head && tracer_->wants(flit.pkt->id)) {
        tracer_->complete(isEjection(o) ? "eject_hop" : "hop", id_,
                          flit.pkt->id, flit.enqueueCycle, now);
    }
    flit.vc = out_vc;
    if (isEjection(o)) {
        sink_->ejectFlit(o - NUM_DIRS, std::move(flit), now);
    } else {
        auto &credits = slab_->outCredits[ov(o, out_vc)];
        tenoc_assert(credits > 0, "SA granted without credit");
        --credits;
        outputs_[o].flitOut->send(std::move(flit), now);
        ++link_flits_[o];
    }
    if (tail) {
        slab_->outOwned[ov(o, out_vc)] = 0;
        freeVcs(o)[out_vc >> 6] |= std::uint64_t{1} << (out_vc & 63);
        inputs_[in].setState(vc, VcState::IDLE);
    }
    ++flits_traversed_;
    if (net_traversed_)
        ++*net_traversed_;
    sa_input_arb_[in].accept(vc);
    outputs_[o].saArb.accept(in);
}

void
Router::switchAllocate(Cycle now)
{
    if (!mask_alloc_) {
        switchAllocateWide(now);
        return;
    }
    std::uint64_t cand = ready(SA_READY)[0];
    if (cand == 0)
        return;
    // Input stage: each input port with candidates nominates one ready
    // VC.  The mask path has >= 5 inputs, so vcs < 64.  The output
    // stage clears every mask it reads, so they start each call empty.
    const unsigned vcs = nvcs_;
    const std::uint64_t vc_mask = (std::uint64_t{1} << vcs) - 1;
    for (unsigned in = 0; cand != 0; ++in, cand >>= vcs) {
        const std::uint64_t req = cand & vc_mask;
        if (req == 0)
            continue;
        const InputPort &port = inputs_[in];
        std::uint64_t eligible = 0;
        for (std::uint64_t m = req; m != 0; m &= m - 1) {
            const auto vc = static_cast<unsigned>(std::countr_zero(m));
            if (saEligible(port, vc, now))
                eligible |= std::uint64_t{1} << vc;
        }
        if (eligible == 0)
            continue;
        const unsigned win = params_.agePriority
            ? oldestRequestor(&eligible, 1, vcs,
                              [&](unsigned vc) -> const Flit & {
                                  return port.front(vc);
                              })
            : sa_input_arb_[in].grantMask(eligible);
        sa_nominee_[in] = win;
        sa_out_mask_[port.outPort(win)] |= std::uint64_t{1} << in;
    }
    // Output stage: one winner per output port, then traversal.
    for (unsigned o = 0; o < numOutputs(); ++o) {
        const std::uint64_t reqs = sa_out_mask_[o];
        if (reqs == 0)
            continue;
        sa_out_mask_[o] = 0;
        const unsigned in = params_.agePriority
            ? oldestRequestor(&reqs, 1, numInputs(),
                              [&](unsigned c) -> const Flit & {
                                  return inputs_[c].front(sa_nominee_[c]);
                              })
            : outputs_[o].saArb.grantMask(reqs);
        traverse(in, sa_nominee_[in], o, now);
    }
}

void
Router::switchAllocateWide(Cycle now)
{
    const unsigned vcs = nvcs_;
    const std::uint64_t *sa = ready(SA_READY);
    if (!anySet(sa, words_))
        return;
    // Input stage: each input port nominates one ready VC.  Its
    // candidates are bits [in * vcs, (in + 1) * vcs) of the SA words;
    // the eligibility set lives in a word array so the arbiter grant
    // is O(words) (RoundRobinArbiter::grantWords).
    std::fill(sa_out_words_.begin(), sa_out_words_.end(), 0);
    for (unsigned in = 0; in < numInputs(); ++in) {
        const InputPort &port = inputs_[in];
        const unsigned lo = in * vcs;
        const unsigned hi = lo + vcs;
        std::uint64_t *elig = sa_vc_words_.data();
        std::fill(sa_vc_words_.begin(), sa_vc_words_.end(), 0);
        bool any = false;
        for (unsigned i = firstSetInRange(sa, lo, hi); i < hi;
             i = firstSetInRange(sa, i + 1, hi)) {
            const unsigned vc = i - lo;
            if (saEligible(port, vc, now)) {
                elig[vc >> 6] |= std::uint64_t{1} << (vc & 63);
                any = true;
            }
        }
        if (!any)
            continue;
        const unsigned win = params_.agePriority
            ? oldestRequestor(elig, vc_words_, vcs,
                              [&](unsigned vc) -> const Flit & {
                                  return port.front(vc);
                              })
            : sa_input_arb_[in].grantWords(elig, vc_words_);
        sa_nominee_[in] = win;
        sa_out_words_[port.outPort(win) * in_words_ + (in >> 6)] |=
            std::uint64_t{1} << (in & 63);
    }
    // Output stage: one winner per output port, then traversal.
    for (unsigned o = 0; o < numOutputs(); ++o) {
        const std::uint64_t *reqs = sa_out_words_.data() + o * in_words_;
        const unsigned in = params_.agePriority
            ? oldestRequestor(reqs, in_words_, numInputs(),
                              [&](unsigned c) -> const Flit & {
                                  return inputs_[c].front(sa_nominee_[c]);
                              })
            : outputs_[o].saArb.grantWords(reqs, in_words_);
        if (in < numInputs())
            traverse(in, sa_nominee_[in], o, now);
    }
}

bool
Router::empty() const
{
    for (const auto &p : inputs_)
        if (p.totalOccupancy() != 0)
            return false;
    return true;
}

bool
Router::couldWork() const
{
    if (arrival_sched_) {
        // Items merely in flight no longer hold the router awake: the
        // arrival scheduler wakes it on the delivery cycle, so only
        // buffered flits or matured, undrained arrivals count.
        return arrival_sched_->pending(arrival_idx_) != 0 || !empty();
    }
    if (!empty())
        return true;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn && !in_links_[d].flitIn->empty())
            return true;
        if (outputs_[d].creditIn && !outputs_[d].creditIn->empty())
            return true;
    }
    return false;
}

bool
Router::hasMaturedArrival(Cycle now) const
{
    // Clamp to the wheel's delivered-through horizon: an arrival due
    // at a cycle fire() has not yet been asked for is legitimately
    // still asleep, not a lost wake.
    if (arrival_sched_)
        now = std::min(now, arrival_sched_->firedThrough());
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn &&
            in_links_[d].flitIn->earliestArrival() <= now)
            return true;
        if (outputs_[d].creditIn &&
            outputs_[d].creditIn->earliestArrival() <= now)
            return true;
    }
    return false;
}

std::uint64_t
Router::bufferedFlits() const
{
    std::uint64_t n = 0;
    for (const auto &p : inputs_)
        n += p.totalOccupancy();
    return n;
}

void
Router::save(SnapshotWriter &w) const
{
    w.tag("RTRS");
    for (const InputPort &in : inputs_)
        in.save(w);
    for (unsigned o = 0; o < numOutputs(); ++o) {
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            const std::size_t i = ov(o, vc);
            w.boolean(slab_->outOwned[i] != 0);
            w.u32(slab_->outOwnerIn[i]);
            w.u32(slab_->outOwnerVc[i]);
            w.u32(slab_->outCredits[i]);
        }
        w.u32(outputs_[o].vaArb.pointer());
        w.u32(outputs_[o].saArb.pointer());
    }
    for (const RoundRobinArbiter &arb : sa_input_arb_)
        w.u32(arb.pointer());
    w.u32(ej_rr_);
    w.u64(flits_traversed_);
    for (const std::uint64_t f : link_flits_)
        w.u64(f);
}

void
Router::restore(SnapshotReader &r)
{
    r.tag("RTRS");
    for (InputPort &in : inputs_) {
        in.restore(r, numOutputs());
        // The VC-class base cached by RC is derived state outside the
        // snapshot format; rebuild it for VCs awaiting allocation.
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            if (in.state(vc) == VcState::VC_ALLOC)
                in.setBaseVc(vc, params_.vcMap.baseVc(*in.front(vc).pkt));
        }
    }
    for (unsigned o = 0; o < numOutputs(); ++o) {
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            const std::size_t i = ov(o, vc);
            slab_->outOwned[i] = r.boolean() ? 1 : 0;
            slab_->outOwnerIn[i] = r.u32();
            slab_->outOwnerVc[i] = r.u32();
            slab_->outCredits[i] = r.u32();
        }
        outputs_[o].vaArb.setPointer(r.u32());
        outputs_[o].saArb.setPointer(r.u32());
    }
    rebuildFreeVcs();
    for (RoundRobinArbiter &arb : sa_input_arb_)
        arb.setPointer(r.u32());
    ej_rr_ = r.u32();
    flits_traversed_ = r.u64();
    for (std::uint64_t &f : link_flits_)
        f = r.u64();
}

} // namespace tenoc
