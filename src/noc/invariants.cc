/**
 * @file
 * InvariantChecker implementation.
 */

#include "noc/invariants.hh"


#include "common/config.hh"
#include "common/log.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"

namespace tenoc
{

namespace
{

using detail::formatMessage;

void
addViolation(std::vector<Violation> &out, Violation::Kind kind,
             std::string message)
{
    if (out.size() < InvariantChecker::maxViolations)
        out.push_back({kind, std::move(message)});
}

} // namespace

const char *
violationKindName(Violation::Kind kind)
{
    switch (kind) {
      case Violation::Kind::CREDIT_CONSERVATION:
        return "credit_conservation";
      case Violation::Kind::FLIT_CONSERVATION:
        return "flit_conservation";
      case Violation::Kind::PACKET_CONSERVATION:
        return "packet_conservation";
      case Violation::Kind::VC_STATE:
        return "vc_state";
      case Violation::Kind::VC_OWNERSHIP:
        return "vc_ownership";
      case Violation::Kind::OCCUPANCY:
        return "occupancy";
      case Violation::Kind::CONNECTIVITY:
        return "connectivity";
      case Violation::Kind::ACTIVITY:
        return "activity";
      case Violation::Kind::STAGE_WORDS:
        return "stage_words";
    }
    return "unknown";
}

bool
validateForcedByEnv()
{
    return envSwitch("TENOC_VALIDATE") == 1;
}

void
InvariantChecker::addRouter(const Router *router)
{
    routers_.push_back(router);
}

void
InvariantChecker::addNi(const NetworkInterface *ni)
{
    nis_.push_back(ni);
}

void
InvariantChecker::addLink(const Router *up, unsigned out_dir,
                          const Channel<Flit> *flit_chan,
                          const Channel<Credit> *credit_chan,
                          const Router *down, unsigned down_in)
{
    links_.push_back({up, out_dir, flit_chan, credit_chan, down, down_in});
}

void
InvariantChecker::setCounters(const std::uint64_t *inflight,
                              const std::uint64_t *flits_in,
                              const std::uint64_t *flits_out)
{
    inflight_ = inflight;
    flits_in_ = flits_in;
    flits_out_ = flits_out;
}

void
InvariantChecker::setActivity(const ActiveSet *router_set,
                              const ActiveSet *ni_set)
{
    router_set_ = router_set;
    ni_set_ = ni_set;
}

void
InvariantChecker::checkRouter(const Router &r,
                              std::vector<Violation> &out) const
{
    static constexpr const char *ready_names[NUM_READY_SETS] = {
        "RC-pending", "VA-requesting", "SA-candidate"};
    const unsigned vcs = r.numVcs();
    const unsigned inputs = r.numInputs();
    const unsigned outputs = r.numOutputs();
    const auto bit = [](std::uint64_t word, unsigned i) {
        return ((word >> (i % 64)) & 1) != 0;
    };

    for (unsigned in = 0; in < inputs; ++in) {
        for (unsigned vc = 0; vc < vcs; ++vc) {
            const auto occ = r.vcOccupancy(in, vc);
            if (occ > vc_depth_) {
                addViolation(out, Violation::Kind::OCCUPANCY,
                             formatMessage(
                                 "router ", r.id(), " input ", in, " vc ",
                                 vc, ": occupancy ", occ,
                                 " exceeds vcDepth ", vc_depth_));
            }
            const VcState state = r.vcState(in, vc);
            const Flit *front = r.vcFront(in, vc);
            // Each stage-ready bit must equal its recomputation.
            const bool ready[NUM_READY_SETS] = {
                state == VcState::IDLE && front,
                state == VcState::VC_ALLOC,
                state == VcState::ACTIVE && front};
            const unsigned i = in * vcs + vc;
            for (unsigned s = 0; s < NUM_READY_SETS; ++s) {
                const bool got =
                    bit(r.readyWord(static_cast<ReadySet>(s), i / 64), i);
                if (got != ready[s]) {
                    addViolation(out, Violation::Kind::STAGE_WORDS,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": ", ready_names[s],
                                     " bit is ", got, ", VC state says ",
                                     ready[s]));
                }
            }
            switch (state) {
              case VcState::IDLE:
                // Between cycles an idle VC may already buffer the
                // next packet, but its front must then be a head flit
                // (routeCompute consumes exactly one worm at a time).
                if (front && !front->head) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": IDLE with non-head flit at front"
                                     " (pkt ", front->pkt->id, " seq ",
                                     front->seq, ")"));
                }
                break;
              case VcState::ROUTING:
                addViolation(out, Violation::Kind::VC_STATE,
                             formatMessage(
                                 "router ", r.id(), " input ", in, " vc ",
                                 vc, ": ROUTING state is unreachable in"
                                 " the single-phase RC implementation"));
                break;
              case VcState::VC_ALLOC: {
                const unsigned out_port = r.vcOutPort(in, vc);
                if (!front) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": VC_ALLOC with empty buffer"));
                } else if (!front->head) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": VC_ALLOC with non-head front"
                                     " (pkt ", front->pkt->id, " seq ",
                                     front->seq, ")"));
                }
                if (out_port >= outputs) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": out port ", out_port,
                                     " out of range (", outputs, ")"));
                } else if (!r.connectivityAllows(in, out_port)) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": turn to output ",
                                     out_port,
                                     " violates the connectivity mask"));
                }
                break;
              }
              case VcState::ACTIVE: {
                const unsigned out_port = r.vcOutPort(in, vc);
                const unsigned out_vc = r.vcOutVc(in, vc);
                if (out_port >= outputs || out_vc >= vcs) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": ACTIVE targets (",
                                     out_port, ", ", out_vc,
                                     ") out of range"));
                    break;
                }
                if (!r.connectivityAllows(in, out_port)) {
                    addViolation(out, Violation::Kind::CONNECTIVITY,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc, ": ACTIVE turn to"
                                     " output ", out_port,
                                     " violates the connectivity mask"));
                }
                if (!r.outputVcOwned(out_port, out_vc) ||
                    r.outputVcOwnerIn(out_port, out_vc) != in ||
                    r.outputVcOwnerVc(out_port, out_vc) != vc) {
                    addViolation(out, Violation::Kind::VC_OWNERSHIP,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": ACTIVE but output VC (",
                                     out_port, ", ", out_vc,
                                     ") is not owned by it"));
                }
                if (front && front->head && front->seq != 0) {
                    addViolation(out, Violation::Kind::VC_STATE,
                                 formatMessage(
                                     "router ", r.id(), " input ", in,
                                     " vc ", vc,
                                     ": malformed head flit (pkt ",
                                     front->pkt->id, " seq ",
                                     front->seq, ")"));
                }
                break;
              }
            }
        }
    }

    for (unsigned o = 0; o < outputs; ++o) {
        const bool directional = o < NUM_DIRS;
        for (unsigned vc = 0; vc < vcs; ++vc) {
            const unsigned credits = r.outputCredits(o, vc);
            const unsigned bound =
                directional && r.outputConnected(o) ? vc_depth_ : 0;
            if (credits > bound) {
                addViolation(out, Violation::Kind::CREDIT_CONSERVATION,
                             formatMessage(
                                 "router ", r.id(), " output ", o, " vc ",
                                 vc, ": ", credits,
                                 " credits exceed bound ", bound));
            }
            if (bit(r.freeVcWord(o, vc / 64), vc) == r.outputVcOwned(o, vc)) {
                addViolation(out, Violation::Kind::STAGE_WORDS,
                             formatMessage(
                                 "router ", r.id(), " output VC (", o,
                                 ", ", vc, "): free bit disagrees with"
                                 " ownership"));
            }
            if (!r.outputVcOwned(o, vc))
                continue;
            const unsigned in = r.outputVcOwnerIn(o, vc);
            const unsigned in_vc = r.outputVcOwnerVc(o, vc);
            if (in >= r.numInputs() || in_vc >= vcs) {
                addViolation(out, Violation::Kind::VC_OWNERSHIP,
                             formatMessage(
                                 "router ", r.id(), " output VC (", o,
                                 ", ", vc, "): owner (", in, ", ", in_vc,
                                 ") out of range"));
                continue;
            }
            if (r.vcState(in, in_vc) != VcState::ACTIVE ||
                r.vcOutPort(in, in_vc) != o ||
                r.vcOutVc(in, in_vc) != vc) {
                addViolation(out, Violation::Kind::VC_OWNERSHIP,
                             formatMessage(
                                 "router ", r.id(), " output VC (", o,
                                 ", ", vc, "): recorded owner input (",
                                 in, ", ", in_vc,
                                 ") does not hold it"));
            }
        }
    }
}

void
InvariantChecker::checkLink(const LinkRecord &link,
                            std::vector<Violation> &out) const
{
    const unsigned vcs = link.up->numVcs();
    for (unsigned vc = 0; vc < vcs; ++vc) {
        const unsigned up_credits = link.up->outputCredits(link.outDir, vc);
        std::size_t flits_in_flight = 0;
        link.flitChan->forEachInFlight([&](const Flit &f) {
            if (f.vc == vc)
                ++flits_in_flight;
        });
        std::size_t credits_in_flight = 0;
        link.creditChan->forEachInFlight([&](const Credit &c) {
            if (c.vc == vc)
                ++credits_in_flight;
        });
        const std::size_t down_occ =
            link.down->vcOccupancy(link.downIn, vc);
        const std::size_t total = up_credits + flits_in_flight +
                                  credits_in_flight + down_occ;
        if (total != vc_depth_) {
            addViolation(out, Violation::Kind::CREDIT_CONSERVATION,
                         formatMessage(
                             "link ", link.up->id(), "->",
                             link.down->id(), " dir ", link.outDir,
                             " vc ", vc, ": credits=", up_credits,
                             " + flitsInFlight=", flits_in_flight,
                             " + creditsInFlight=", credits_in_flight,
                             " + downstreamOcc=", down_occ, " = ", total,
                             ", expected vcDepth=", vc_depth_));
        }
    }
}

void
InvariantChecker::checkNis(std::vector<Violation> &out) const
{
    for (const NetworkInterface *ni : nis_) {
        const NiAuditInfo info = ni->audit();
        if (info.pendingInject != info.queuedPackets + info.activeSlots) {
            addViolation(out, Violation::Kind::PACKET_CONSERVATION,
                         formatMessage(
                             "NI ", ni->node(), ": pendingInject=",
                             info.pendingInject, " but queues hold ",
                             info.queuedPackets, " + ", info.activeSlots,
                             " active"));
        }
        if (info.ejOccupancyCounter != info.ejFlits) {
            addViolation(out, Violation::Kind::OCCUPANCY,
                         formatMessage(
                             "NI ", ni->node(), ": ejection counter ",
                             info.ejOccupancyCounter, " != buffered ",
                             info.ejFlits));
        }
        if (info.maxEjPortOccupancy > info.ejCapacity) {
            addViolation(out, Violation::Kind::OCCUPANCY,
                         formatMessage(
                             "NI ", ni->node(), ": ejection port holds ",
                             info.maxEjPortOccupancy, " flits, capacity ",
                             info.ejCapacity));
        }
    }
}

void
InvariantChecker::checkConservation(std::vector<Violation> &out) const
{
    if (!flits_in_ || !flits_out_ || !inflight_)
        return;

    std::uint64_t buffered = 0;
    std::uint64_t buffered_tails = 0;
    for (const Router *r : routers_) {
        buffered += r->bufferedFlits();
        r->forEachBufferedFlit([&](unsigned, unsigned, const Flit &f) {
            if (f.tail)
                ++buffered_tails;
        });
    }
    std::uint64_t chan_flits = 0;
    std::uint64_t chan_tails = 0;
    for (const LinkRecord &link : links_) {
        link.flitChan->forEachInFlight([&](const Flit &f) {
            ++chan_flits;
            if (f.tail)
                ++chan_tails;
        });
    }
    std::uint64_t ej_flits = 0;
    std::uint64_t ej_tails = 0;
    std::uint64_t ni_pending = 0;
    for (const NetworkInterface *ni : nis_) {
        const NiAuditInfo info = ni->audit();
        ej_flits += info.ejFlits;
        ej_tails += info.ejTails;
        ni_pending += info.queuedPackets + info.activeSlots;
    }

    const std::uint64_t in_network = buffered + chan_flits + ej_flits;
    if (*flits_in_ - *flits_out_ != in_network) {
        addViolation(out, Violation::Kind::FLIT_CONSERVATION,
                     formatMessage(
                         "flits injected ", *flits_in_, " - drained ",
                         *flits_out_, " = ", *flits_in_ - *flits_out_,
                         " but the network holds ", in_network,
                         " (routers=", buffered, " channels=", chan_flits,
                         " ejection=", ej_flits, ")"));
    }

    const std::uint64_t held =
        ni_pending + buffered_tails + chan_tails + ej_tails;
    if (*inflight_ != held) {
        addViolation(out, Violation::Kind::PACKET_CONSERVATION,
                     formatMessage(
                         "in-flight counter ", *inflight_,
                         " != held packets ", held, " (NI pending=",
                         ni_pending, " tails: routers=", buffered_tails,
                         " channels=", chan_tails, " ejection=", ej_tails,
                         ")"));
    }
}

void
InvariantChecker::checkActivity(Cycle now,
                                std::vector<Violation> &out) const
{
    if (router_set_) {
        for (std::size_t n = 0; n < routers_.size(); ++n) {
            // couldWork() is mode-appropriate: under arrival-scheduled
            // channels it reports buffered flits or matured pending
            // bits (a sleeping router with only future in-flight
            // arrivals is legitimately retired — the wheel wakes it),
            // under wake-on-send it scans every attached channel.  The
            // deep matured-arrival scan backstops the wheel itself: a
            // lost entry leaves a matured flit with no pending bit,
            // which this check still flags.
            if ((routers_[n]->couldWork() ||
                 routers_[n]->hasMaturedArrival(now)) &&
                !router_set_->test(static_cast<unsigned>(n))) {
                addViolation(out, Violation::Kind::ACTIVITY,
                             formatMessage(
                                 "router ", routers_[n]->id(),
                                 " could work but is retired from the"
                                 " active set (idle-skip would strand"
                                 " its traffic)"));
            }
        }
    }
    if (ni_set_) {
        for (std::size_t n = 0; n < nis_.size(); ++n) {
            if (!nis_[n]->idle() &&
                !ni_set_->test(static_cast<unsigned>(n))) {
                addViolation(out, Violation::Kind::ACTIVITY,
                             formatMessage(
                                 "NI ", nis_[n]->node(),
                                 " holds work but is retired from the"
                                 " active set"));
            }
        }
    }
}

std::vector<Violation>
InvariantChecker::audit(Cycle now) const
{
    std::vector<Violation> out;
    for (const Router *r : routers_)
        checkRouter(*r, out);
    for (const LinkRecord &link : links_)
        checkLink(link, out);
    checkNis(out);
    checkConservation(out);
    checkActivity(now, out);
    return out;
}

void
InvariantChecker::check(Cycle now) const
{
    const auto violations = audit(now);
    if (violations.empty())
        return;
    std::string msg = formatMessage("invariant check failed at cycle ",
                                    now, " (", violations.size(),
                                    " violation(s)):");
    for (const Violation &v : violations) {
        msg += formatMessage("\n  [", violationKindName(v.kind), "] ",
                             v.message);
    }
    tenoc_panic(msg);
}

Cycle
InvariantChecker::oldestCreated() const
{
    Cycle oldest = INVALID_CYCLE;
    auto track = [&oldest](Cycle created) {
        if (created != INVALID_CYCLE &&
            (oldest == INVALID_CYCLE || created < oldest)) {
            oldest = created;
        }
    };
    for (const NetworkInterface *ni : nis_)
        track(ni->audit().oldestCreated);
    for (const Router *r : routers_) {
        r->forEachBufferedFlit([&](unsigned, unsigned, const Flit &f) {
            track(f.pkt->createdCycle);
        });
    }
    for (const LinkRecord &link : links_) {
        link.flitChan->forEachInFlight(
            [&](const Flit &f) { track(f.pkt->createdCycle); });
    }
    return oldest;
}

} // namespace tenoc
