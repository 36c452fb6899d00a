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
    // One word holds an output's free VCs, an input's SA candidates
    // and an output's SA requestors.
    if (vcs > 64 || numInputs() > 64) {
        tenoc_fatal("invalid network config: router ", id_, " has ", vcs,
                    " VCs per port and ", numInputs(), " inputs; at"
                    " most 64 of each are supported (lower vcsPerClass,"
                    " protoClasses or mcInjPorts)");
    }
    words_ = (numInputs() * vcs + 63) / 64;
    // This router's private stage-ready and free-VC words.
    ready_base_ = VcSlabs::reserveWords(slab_->readyWords,
                                        NUM_READY_SETS * words_);
    free_base_ = VcSlabs::reserveWords(slab_->freeVcWords, numOutputs());
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
    va_reqs_.resize(numOutputs() * words_);
    sa_out_mask_.resize(numOutputs());
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
        std::uint64_t &free = freeVcs(o);
        free = 0;
        for (unsigned vc = 0; vc < nvcs_; ++vc) {
            if (!slab_->outOwned[ov(o, vc)])
                free |= std::uint64_t{1} << vc;
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
    // Event-driven drain: only ports whose pending bit fired have a
    // matured front entry; everything else is guaranteed to deliver
    // nothing, so skipping the receive() poll is exact.
    std::uint32_t bits = arrival_sched_->pending(arrival_idx_);
    if (bits == 0)
        return;
    std::uint32_t keep = 0;
    while (bits) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        if (b < NUM_DIRS) {
            Channel<Flit> *ch = in_links_[b].flitIn;
            while (auto f = ch->receive(now))
                inputs_[b].push(std::move(*f), now);
            // A stalled link keeps its matured backlog; the bit stays
            // pending so the router keeps polling until it clears.
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
 * Age-priority pick among the set bits of `requests` (nonzero): the
 * requestor i whose front flit `front_of(i)` belongs to the oldest
 * packet, the lowest i on ties.
 */
template <typename FrontOf>
unsigned
oldestRequestor(std::uint64_t requests, FrontOf &&front_of)
{
    unsigned win = static_cast<unsigned>(std::countr_zero(requests));
    Cycle best = packetAge(front_of(win));
    for (std::uint64_t m = requests & (requests - 1); m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        const Cycle age = packetAge(front_of(i));
        if (age < best) {
            best = age;
            win = i;
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

/** The low `n` bits set (n <= 64). */
std::uint64_t
lowBits(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/** Bits [lo, lo + n) of a word array as one word (n <= 64). */
std::uint64_t
bitsAt(const std::uint64_t *words, unsigned lo, unsigned n)
{
    const unsigned s = lo & 63;
    std::uint64_t bits = words[lo >> 6] >> s;
    if (s + n > 64)
        bits |= words[(lo >> 6) + 1] << (64 - s);
    return bits & lowBits(n);
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
    std::uint64_t &free = freeVcs(o);
    const std::uint64_t avail =
        free & (lowBits(params_.vcMap.vcsPerClass) << base);
    // No eligible VC free: the requestor retries next cycle.  Other
    // requestors may still want different (protocol/routing class) VCs.
    if (avail == 0)
        return;
    const auto granted = static_cast<unsigned>(std::countr_zero(avail));
    free &= ~(std::uint64_t{1} << granted);
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
    const std::uint64_t class_mask = lowBits(params_.vcMap.vcsPerClass);
    for (unsigned w = 0; w < words_; ++w) {
        for (std::uint64_t m = va[w]; m != 0; m &= m - 1) {
            const unsigned i =
                w * 64 + static_cast<unsigned>(std::countr_zero(m));
            if ((freeVcs(op[i]) >> base[i]) & class_mask)
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
        freeVcs(o) |= std::uint64_t{1} << out_vc;
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
    const std::uint64_t *sa = ready(SA_READY);
    // The input stage stops after the port holding the highest
    // candidate bit.
    unsigned w = words_;
    while (w != 0 && sa[w - 1] == 0)
        --w;
    if (w == 0)
        return;
    const unsigned last =
        w * 64 - 1 - static_cast<unsigned>(std::countl_zero(sa[w - 1]));
    // Input stage: each input port with candidates nominates one ready
    // VC.  The output stage clears every mask it reads, so they start
    // each call empty.
    const unsigned vcs = nvcs_;
    for (unsigned in = 0, lo = 0; lo <= last; ++in, lo += vcs) {
        const std::uint64_t req = bitsAt(sa, lo, vcs);
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
            ? oldestRequestor(eligible,
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
            ? oldestRequestor(reqs,
                              [&](unsigned c) -> const Flit & {
                                  return inputs_[c].front(sa_nominee_[c]);
                              })
            : outputs_[o].saArb.grantMask(reqs);
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
    return arrival_sched_->pending(arrival_idx_) != 0 || !empty();
}

std::uint32_t
Router::lostArrivals(Cycle now) const
{
    // Clamp to the wheel's delivered-through horizon: an arrival due
    // at a cycle fire() has not yet been asked for is legitimately
    // still asleep, not a lost wake.
    now = std::min(now, arrival_sched_->firedThrough());
    std::uint32_t matured = 0;
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        if (in_links_[d].flitIn &&
            in_links_[d].flitIn->earliestArrival() <= now)
            matured |= arrivalFlitBit(d);
        if (outputs_[d].creditIn &&
            outputs_[d].creditIn->earliestArrival() <= now)
            matured |= arrivalCreditBit(d);
    }
    return matured & ~arrival_sched_->pending(arrival_idx_);
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
