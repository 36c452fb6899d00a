/**
 * @file
 * Unit tests for input-port VC buffers.
 */

#include <gtest/gtest.h>

#include "common/snapshot.hh"
#include "noc/buffer.hh"

namespace tenoc
{
namespace
{

Flit
makeFlit(unsigned vc, bool head = true, bool tail = true)
{
    auto pkt = makePacket();
    pkt->sizeFlits = 1;
    Flit f;
    f.pkt = std::move(pkt);
    f.head = head;
    f.tail = tail;
    f.vc = vc;
    return f;
}

TEST(InputPort, PushPopFifoOrder)
{
    InputPort port(2, 4);
    auto a = makeFlit(0);
    a.seq = 1;
    auto b = makeFlit(0);
    b.seq = 2;
    port.push(std::move(a), 10);
    port.push(std::move(b), 11);
    EXPECT_EQ(port.occupancy(0), 2u);
    EXPECT_EQ(port.front(0).seq, 1u);
    EXPECT_EQ(port.front(0).enqueueCycle, 10u);
    EXPECT_EQ(port.pop(0).seq, 1u);
    EXPECT_EQ(port.pop(0).seq, 2u);
    EXPECT_TRUE(port.empty(0));
}

TEST(InputPort, VcsAreIndependent)
{
    InputPort port(3, 2);
    port.push(makeFlit(0), 0);
    port.push(makeFlit(2), 0);
    EXPECT_EQ(port.occupancy(0), 1u);
    EXPECT_EQ(port.occupancy(1), 0u);
    EXPECT_EQ(port.occupancy(2), 1u);
    EXPECT_EQ(port.freeSlots(0), 1u);
    EXPECT_EQ(port.freeSlots(1), 2u);
    EXPECT_EQ(port.totalOccupancy(), 2u);
}

TEST(InputPort, StateMachineFields)
{
    InputPort port(2, 4);
    EXPECT_EQ(port.state(0), VcState::IDLE);
    port.setState(0, VcState::ACTIVE);
    port.setOutPort(0, 3);
    port.setOutVc(0, 1);
    EXPECT_EQ(port.state(0), VcState::ACTIVE);
    EXPECT_EQ(port.outPort(0), 3u);
    EXPECT_EQ(port.outVc(0), 1u);
    EXPECT_EQ(port.state(1), VcState::IDLE);
}

TEST(InputPortDeath, OverflowPanics)
{
    InputPort port(1, 2);
    port.push(makeFlit(0), 0);
    port.push(makeFlit(0), 1);
    EXPECT_DEATH(port.push(makeFlit(0), 2), "overflow");
}

TEST(InputPortDeath, PopEmptyPanics)
{
    InputPort port(1, 2);
    EXPECT_DEATH(port.pop(0), "empty");
}

/** A hand-built INPT record of one empty VC with the given fields. */
SnapshotReader
inputRecord(std::uint8_t state, std::uint32_t out_port,
            std::uint32_t out_vc)
{
    SnapshotWriter w;
    w.tag("INPT");
    w.u64(1); // VCs
    w.u8(state);
    w.u32(out_port);
    w.u32(out_vc);
    w.u64(0); // buffered flits
    return SnapshotReader(w.data());
}

TEST(InputPortDeath, RestoreRejectsCorruptVcFields)
{
    constexpr unsigned outputs = 5;
    const auto restore = [](SnapshotReader r) {
        InputPort port(1, 2);
        port.restore(r, outputs);
    };
    // A state no stage serves (ROUTING is never entered) would hang.
    EXPECT_EXIT(restore(inputRecord(7, 0, 0)),
                ::testing::ExitedWithCode(1), "invalid state 7");
    EXPECT_EXIT(restore(inputRecord(
                    static_cast<std::uint8_t>(VcState::ROUTING), 0, 0)),
                ::testing::ExitedWithCode(1), "invalid state 1");
    // Out-of-range routes of a non-idle VC.
    const auto active = static_cast<std::uint8_t>(VcState::ACTIVE);
    EXPECT_EXIT(restore(inputRecord(active, outputs, 0)),
                ::testing::ExitedWithCode(1), "outside 5 ports x 1 VCs");
    EXPECT_EXIT(restore(inputRecord(active, 0, 1)),
                ::testing::ExitedWithCode(1), "outside 5 ports x 1 VCs");
}

TEST(InputPort, RestoreAcceptsStaleRouteOfIdleVc)
{
    // An idle VC keeps whatever route its last packet used.
    InputPort port(1, 2);
    SnapshotReader r = inputRecord(0, 99, 99);
    port.restore(r, 5);
    EXPECT_EQ(port.state(0), VcState::IDLE);
    EXPECT_TRUE(r.exhausted());
}

} // namespace
} // namespace tenoc
