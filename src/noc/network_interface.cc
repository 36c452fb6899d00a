/**
 * @file
 * NetworkInterface implementation.
 *
 * All hot containers (class queues, active packet slots, ejection
 * buffers) live in a NiSlabs arena — see slab.hh — so the phase
 * methods stream flat arrays instead of chasing deque blocks.  The
 * serialization order of save()/restore() is unchanged from the
 * per-object layout, so the snapshot format is unaffected.
 */

#include "noc/network_interface.hh"

#include <algorithm>

#include "common/snapshot.hh"
#include "telemetry/trace_sink.hh"

namespace tenoc
{

NetworkInterface::NetworkInterface(NodeId node, Router &router,
                                   const VcMap &vc_map,
                                   const NiParams &params,
                                   NetStats &stats, NiSlabs *slab,
                                   unsigned slab_index)
    : node_(node), router_(router), vc_map_(vc_map), params_(params),
      stats_(stats)
{
    ports_ = router_.params().numInjPorts;
    ej_ports_ = router_.params().numEjPorts;
    vcs_ = vc_map_.numVcs();
    if (slab) {
        nslab_ = slab;
        ni_ = slab_index;
        tenoc_assert(nslab_->classes() == vc_map_.protoClasses &&
                         nslab_->injCap() == params_.injQueueCap &&
                         nslab_->ejCap() == params_.ejBufferFlits,
                     "NI slab layout mismatch at node ", node_);
    } else {
        owned_nslab_ = std::make_unique<NiSlabs>();
        owned_nslab_->configure(
            std::vector<unsigned>{ports_}, vcs_, vc_map_.protoClasses,
            params_.injQueueCap, std::vector<unsigned>{ej_ports_},
            params_.ejBufferFlits);
        nslab_ = owned_nslab_.get();
        ni_ = 0;
    }
    qbase_ = std::size_t{ni_} * vc_map_.protoClasses;
    sbase_ = nslab_->slotBase[ni_];
    ebase_ = nslab_->ejPortBase[ni_];
    lane_rr_.assign(vc_map_.protoClasses, 0);
    vc_rr_.assign(ports_, 0);
}

bool
NetworkInterface::canInject(int proto_class) const
{
    const auto cls =
        static_cast<unsigned>(proto_class) % vc_map_.protoClasses;
    return nslab_->qSize(qbase_ + cls) < params_.injQueueCap;
}

unsigned
NetworkInterface::injectSpace(int proto_class) const
{
    const auto cls =
        static_cast<unsigned>(proto_class) % vc_map_.protoClasses;
    const auto used = nslab_->qSize(qbase_ + cls);
    return used >= params_.injQueueCap
        ? 0 : static_cast<unsigned>(params_.injQueueCap - used);
}

void
NetworkInterface::enqueue(PacketPtr pkt, Cycle now)
{
    tenoc_assert(pkt->src == node_, "packet enqueued at wrong NI");
    tenoc_assert(pkt->dst != node_, "self-addressed packet");
    const auto cls =
        static_cast<unsigned>(pkt->protoClass) % vc_map_.protoClasses;
    tenoc_assert(nslab_->qSize(qbase_ + cls) < params_.injQueueCap,
                 "NI injection queue overflow at node ", node_);
    if (pkt->createdCycle == INVALID_CYCLE)
        pkt->createdCycle = now;
    nslab_->qPush(qbase_ + cls, std::move(pkt));
    ++nslab_->pendingInject[ni_];
    if (inflight_)
        ++*inflight_;
    if (active_set_)
        active_set_->mark(active_idx_);
}

bool
NetworkInterface::refillOne(Cycle now)
{
    (void)now;
    const unsigned classes = vc_map_.protoClasses;
    NiSlabs &s = *nslab_;
    for (unsigned i = 0; i < classes; ++i) {
        const unsigned cls = (class_rr_ + i) % classes;
        const std::size_t q = qbase_ + cls;
        if (s.qSize(q) == 0)
            continue;
        const Packet &pkt = *s.qFront(q);
        const unsigned base = vc_map_.baseVc(pkt);
        // Find a free (port, lane) slot for this packet's VC class,
        // round-robin over ports (Sec. IV-D) and lanes.
        for (unsigned pi = 0; pi < ports_; ++pi) {
            const unsigned p = (port_rr_ + pi) % ports_;
            for (unsigned li = 0; li < vc_map_.vcsPerClass; ++li) {
                const unsigned lane =
                    (lane_rr_[cls] + li) % vc_map_.vcsPerClass;
                const unsigned vc = base + lane;
                const std::size_t slot = sbase_ + p * vcs_ + vc;
                if (s.actValid[slot])
                    continue;
                s.actPkt[slot] = s.qPop(q);
                makeFlits(s.actPkt[slot], s.actFlits[slot]);
                s.actNext[slot] = 0;
                s.actValid[slot] = 1;
                for (auto &f : s.actFlits[slot])
                    f.vc = vc;
                class_rr_ = (cls + 1) % classes;
                lane_rr_[cls] = (lane + 1) % vc_map_.vcsPerClass;
                port_rr_ = (p + 1) % ports_;
                return true;
            }
        }
    }
    return false;
}

void
NetworkInterface::injectPhase(Cycle now)
{
    NiSlabs &s = *nslab_;
    if (s.pendingInject[ni_] == 0)
        return; // nothing queued and no packet mid-injection
    while (refillOne(now)) {
    }
    for (unsigned p = 0; p < ports_; ++p) {
        // One flit per port per cycle (terminal bandwidth); pick the
        // next streamable VC round-robin.
        for (unsigned vi = 0; vi < vcs_; ++vi) {
            const unsigned vc = (vc_rr_[p] + vi) % vcs_;
            const std::size_t slot = sbase_ + p * vcs_ + vc;
            if (!s.actValid[slot] || router_.injFreeSlots(p, vc) == 0)
                continue;
            Flit flit = s.actFlits[slot][s.actNext[slot]];
            PacketPtr &pkt = s.actPkt[slot];
            if (flit.head && pkt->injectedCycle == INVALID_CYCLE) {
                pkt->injectedCycle = now;
                if (tracer_ && tracer_->wants(pkt->id)) {
                    tracer_->complete("inject_queue", node_, pkt->id,
                                      pkt->createdCycle, now);
                }
            }
            ++stats_.flitsInjected;
            stats_.nodeInjectedFlits[node_] += 1;
            if (net_flits_in_)
                ++*net_flits_in_;
            router_.injectFlit(p, std::move(flit), now);
            ++s.actNext[slot];
            if (s.actNext[slot] == s.actFlits[slot].size()) {
                ++stats_.packetsInjected;
                stats_.nodeInjectedBytes[node_] += pkt->sizeBytes;
                // Reset in place: keep the flit vector's capacity so
                // the next packet on this (port, VC) lane reuses it.
                pkt.reset();
                s.actFlits[slot].clear();
                s.actNext[slot] = 0;
                s.actValid[slot] = 0;
                --s.pendingInject[ni_];
            }
            vc_rr_[p] = (vc + 1) % vcs_;
            break;
        }
    }
}

bool
NetworkInterface::ejectReady(unsigned ej_port) const
{
    return nslab_->ejSize(ebase_ + ej_port) < params_.ejBufferFlits;
}

void
NetworkInterface::ejectFlit(unsigned ej_port, Flit &&flit, Cycle now)
{
    (void)now;
    tenoc_assert(nslab_->ejSize(ebase_ + ej_port) < params_.ejBufferFlits,
                 "ejection buffer overflow at node ", node_);
    nslab_->ejPush(ebase_ + ej_port, std::move(flit));
    ++nslab_->ejOccupancy[ni_];
    if (active_set_)
        active_set_->mark(active_idx_);
}

void
NetworkInterface::drainPhase(Cycle now)
{
    NiSlabs &s = *nslab_;
    if (s.ejOccupancy[ni_] == 0)
        return;
    for (unsigned p = 0; p < ej_ports_; ++p) {
        const std::size_t ring = ebase_ + p;
        if (s.ejSize(ring) == 0)
            continue;
        const Flit &f = s.ejFront(ring);
        if (f.head && sink_ && !sink_->tryReserve(*f.pkt))
            continue; // node backpressure (e.g. MC queue full)
        Flit flit = s.ejPop(ring);
        --s.ejOccupancy[ni_];
        ++stats_.flitsEjected;
        stats_.nodeEjectedFlits[node_] += 1;
        if (net_flits_out_)
            ++*net_flits_out_;
        if (flit.head)
            flit.pkt->headEjectedCycle = now;
        if (flit.tail) {
            PacketPtr pkt = flit.pkt;
            pkt->ejectedCycle = now;
            if (inflight_)
                --*inflight_;
            ++stats_.packetsEjected;
            stats_.nodeEjectedBytes[node_] += pkt->sizeBytes;
            const auto total = static_cast<double>(now - pkt->createdCycle);
            stats_.totalLatency.sample(total);
            stats_.totalLatencyHist.sample(total);
            if (pkt->injectedCycle != INVALID_CYCLE) {
                stats_.netLatency.sample(
                    static_cast<double>(now - pkt->injectedCycle));
                stats_.queueLatencyHist.sample(static_cast<double>(
                    pkt->injectedCycle - pkt->createdCycle));
                if (pkt->headEjectedCycle != INVALID_CYCLE) {
                    stats_.traversalLatencyHist.sample(static_cast<double>(
                        pkt->headEjectedCycle - pkt->injectedCycle));
                    stats_.serializationLatencyHist.sample(
                        static_cast<double>(now - pkt->headEjectedCycle));
                }
            }
            if (tracer_ && tracer_->wants(pkt->id)) {
                tracer_->complete(
                    "eject", node_, pkt->id,
                    pkt->headEjectedCycle != INVALID_CYCLE
                        ? pkt->headEjectedCycle : now,
                    now);
            }
            if (sink_)
                sink_->deliver(std::move(pkt), now);
        }
    }
}

bool
NetworkInterface::idle() const
{
    return nslab_->pendingInject[ni_] == 0 &&
           nslab_->ejOccupancy[ni_] == 0;
}

NiAuditInfo
NetworkInterface::audit() const
{
    const NiSlabs &s = *nslab_;
    NiAuditInfo info;
    info.pendingInject = s.pendingInject[ni_];
    info.ejOccupancyCounter = s.ejOccupancy[ni_];
    info.ejCapacity = params_.ejBufferFlits;
    info.idle = idle();
    auto track = [&info](const Packet &pkt) {
        if (pkt.createdCycle != INVALID_CYCLE &&
            (info.oldestCreated == INVALID_CYCLE ||
             pkt.createdCycle < info.oldestCreated)) {
            info.oldestCreated = pkt.createdCycle;
        }
    };
    for (unsigned c = 0; c < vc_map_.protoClasses; ++c) {
        info.queuedPackets += s.qSize(qbase_ + c);
        s.forEachQueued(qbase_ + c,
                        [&](const PacketPtr &pkt) { track(*pkt); });
    }
    for (unsigned p = 0; p < ports_; ++p) {
        for (unsigned vc = 0; vc < vcs_; ++vc) {
            const std::size_t slot = sbase_ + p * vcs_ + vc;
            if (!s.actValid[slot])
                continue;
            ++info.activeSlots;
            track(*s.actPkt[slot]);
        }
    }
    for (unsigned p = 0; p < ej_ports_; ++p) {
        const std::size_t ring = ebase_ + p;
        info.ejFlits += s.ejSize(ring);
        info.maxEjPortOccupancy =
            std::max(info.maxEjPortOccupancy, s.ejSize(ring));
        s.forEachEjFlit(ring, [&](const Flit &flit) {
            if (flit.tail)
                ++info.ejTails;
            track(*flit.pkt);
        });
    }
    return info;
}

void
NetworkInterface::save(SnapshotWriter &w) const
{
    // Serialization order matches the original per-object layout
    // exactly, so moving the containers into the arena did not bump
    // the snapshot format.
    const NiSlabs &s = *nslab_;
    w.tag("NIFC");
    w.u32(s.pendingInject[ni_]);
    w.u32(s.ejOccupancy[ni_]);
    w.u64(vc_map_.protoClasses);
    for (unsigned c = 0; c < vc_map_.protoClasses; ++c) {
        w.u64(s.qSize(qbase_ + c));
        s.forEachQueued(qbase_ + c, [&](const PacketPtr &pkt) {
            savePacket(w, pkt);
        });
    }
    for (unsigned p = 0; p < ports_; ++p) {
        for (unsigned vc = 0; vc < vcs_; ++vc) {
            const std::size_t slot = sbase_ + p * vcs_ + vc;
            w.boolean(s.actValid[slot] != 0);
            if (!s.actValid[slot])
                continue;
            savePacket(w, s.actPkt[slot]);
            w.u64(s.actFlits[slot].size());
            for (const Flit &flit : s.actFlits[slot])
                saveFlit(w, flit);
            w.u32(s.actNext[slot]);
        }
    }
    for (const unsigned rr : lane_rr_)
        w.u32(rr);
    for (const unsigned rr : vc_rr_)
        w.u32(rr);
    w.u32(class_rr_);
    w.u32(port_rr_);
    for (unsigned p = 0; p < ej_ports_; ++p) {
        w.u64(s.ejSize(ebase_ + p));
        s.forEachEjFlit(ebase_ + p,
                        [&](const Flit &flit) { saveFlit(w, flit); });
    }
}

void
NetworkInterface::restore(SnapshotReader &r)
{
    NiSlabs &s = *nslab_;
    r.tag("NIFC");
    s.pendingInject[ni_] = r.u32();
    s.ejOccupancy[ni_] = r.u32();
    const std::uint64_t classes = r.u64();
    tenoc_assert(classes == vc_map_.protoClasses,
                 "NI class count mismatch");
    for (unsigned c = 0; c < vc_map_.protoClasses; ++c) {
        const std::size_t q = qbase_ + c;
        while (s.qSize(q) != 0)
            s.qPop(q);
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i)
            s.qPush(q, loadPacket(r));
    }
    for (unsigned p = 0; p < ports_; ++p) {
        for (unsigned vc = 0; vc < vcs_; ++vc) {
            const std::size_t slot = sbase_ + p * vcs_ + vc;
            const bool valid = r.boolean();
            s.actValid[slot] = valid ? 1 : 0;
            if (!valid) {
                s.actPkt[slot].reset();
                s.actFlits[slot].clear();
                s.actNext[slot] = 0;
                continue;
            }
            s.actPkt[slot] = loadPacket(r);
            s.actFlits[slot].clear();
            const std::uint64_t n = r.u64();
            for (std::uint64_t i = 0; i < n; ++i)
                s.actFlits[slot].push_back(loadFlit(r));
            s.actNext[slot] = r.u32();
        }
    }
    for (unsigned &rr : lane_rr_)
        rr = r.u32();
    for (unsigned &rr : vc_rr_)
        rr = r.u32();
    class_rr_ = r.u32();
    port_rr_ = r.u32();
    for (unsigned p = 0; p < ej_ports_; ++p) {
        const std::size_t ring = ebase_ + p;
        while (s.ejSize(ring) != 0)
            s.ejPop(ring);
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i)
            s.ejPush(ring, loadFlit(r));
    }
}

} // namespace tenoc
