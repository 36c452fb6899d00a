/**
 * @file
 * Packet/flit helpers.
 */

#include "noc/flit.hh"

#include <vector>

#include "common/log.hh"
#include "common/snapshot.hh"

namespace tenoc
{

FreeListPool<Packet> &
packetPool()
{
    thread_local FreeListPool<Packet> pool;
    return pool;
}

PacketPtr
makePacket()
{
    Packet *p = packetPool().allocate();
    *p = Packet{}; // recycled objects carry their previous state
    return PacketPtr(p);
}

int
Packet::routeClass() const
{
    switch (mode) {
      case RouteMode::XY:
        return 0;
      case RouteMode::YX:
        return 1;
      case RouteMode::TWO_PHASE:
        // Phase 1 is a YX leg to the intermediate router; phase 2 an
        // XY leg to the destination (Sec. IV-B).
        return phase2 ? 0 : 1;
    }
    return 0;
}

unsigned
memOpBytes(MemOp op)
{
    // Sec. III-D: read requests are small 8-byte packets; write
    // requests and read replies are large 64-byte packets (control
    // header piggybacked on the line transfer, matching the 4-flit
    // replies of the paper's open-loop runs at 16-byte flits).
    switch (op) {
      case MemOp::READ_REQUEST: return 8;
      case MemOp::WRITE_REQUEST: return 64;
      case MemOp::READ_REPLY: return 64;
      case MemOp::WRITE_ACK: return 8;
    }
    return 8;
}

unsigned
flitsForBytes(unsigned bytes, unsigned flit_bytes)
{
    tenoc_assert(flit_bytes > 0, "flit size must be positive");
    return (bytes + flit_bytes - 1) / flit_bytes;
}

void
makeFlits(const PacketPtr &pkt, std::vector<Flit> &out)
{
    tenoc_assert(pkt && pkt->sizeFlits >= 1, "invalid packet");
    out.clear();
    out.reserve(pkt->sizeFlits);
    for (unsigned i = 0; i < pkt->sizeFlits; ++i) {
        Flit f;
        f.pkt = pkt;
        f.seq = i;
        f.head = (i == 0);
        f.tail = (i == pkt->sizeFlits - 1);
        out.push_back(std::move(f));
    }
}

void
savePacket(SnapshotWriter &w, const PacketPtr &pkt)
{
    if (!pkt) {
        w.u8(0);
        return;
    }
    bool first = false;
    const std::uint64_t id = w.refId(pkt.get(), &first);
    w.u8(first ? 1 : 2);
    w.u64(id);
    if (!first)
        return;
    const Packet &p = *pkt;
    w.u64(p.id);
    w.u32(p.src);
    w.u32(p.dst);
    w.u8(static_cast<std::uint8_t>(p.op));
    w.u32(p.sizeFlits);
    w.u32(p.sizeBytes);
    w.i64(p.protoClass);
    w.u64(p.addr);
    w.u64(p.tag);
    w.u8(static_cast<std::uint8_t>(p.mode));
    w.u32(p.intermediate);
    w.boolean(p.phase2);
    w.u64(p.createdCycle);
    w.u64(p.injectedCycle);
    w.u64(p.headEjectedCycle);
    w.u64(p.ejectedCycle);
}

PacketPtr
loadPacket(SnapshotReader &r)
{
    const std::uint8_t kind = r.u8();
    if (kind == 0)
        return nullptr;
    const std::uint64_t id = r.u64();
    if (kind == 2)
        return PacketPtr(static_cast<Packet *>(r.ref(id)));
    tenoc_assert(kind == 1, "corrupt packet reference kind ", kind);
    PacketPtr pkt = makePacket();
    Packet &p = *pkt;
    p.id = r.u64();
    p.src = r.u32();
    p.dst = r.u32();
    p.op = static_cast<MemOp>(r.u8());
    p.sizeFlits = r.u32();
    p.sizeBytes = r.u32();
    p.protoClass = static_cast<int>(r.i64());
    p.addr = r.u64();
    p.tag = r.u64();
    p.mode = static_cast<RouteMode>(r.u8());
    p.intermediate = r.u32();
    p.phase2 = r.boolean();
    p.createdCycle = r.u64();
    p.injectedCycle = r.u64();
    p.headEjectedCycle = r.u64();
    p.ejectedCycle = r.u64();
    r.setRef(id, pkt.get());
    return pkt;
}

void
saveFlit(SnapshotWriter &w, const Flit &flit)
{
    savePacket(w, flit.pkt);
    w.u32(flit.seq);
    w.boolean(flit.head);
    w.boolean(flit.tail);
    w.u32(flit.vc);
    w.u64(flit.enqueueCycle);
}

Flit
loadFlit(SnapshotReader &r)
{
    Flit f;
    f.pkt = loadPacket(r);
    f.seq = r.u32();
    f.head = r.boolean();
    f.tail = r.boolean();
    f.vc = r.u32();
    f.enqueueCycle = r.u64();
    return f;
}

} // namespace tenoc
