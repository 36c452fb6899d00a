/**
 * @file
 * Unit tests for the VC router: connectivity rules, pipeline latency,
 * credit flow, multi-port ejection, and the stage-ready words.
 */

#include <gtest/gtest.h>

#include "noc/router.hh"

namespace tenoc
{
namespace
{

TopologyParams
cbParams()
{
    TopologyParams p;
    p.placement = McPlacement::CHECKERBOARD;
    p.checkerboardRouters = true;
    return p;
}

Router::Params
routerParams(bool half = false, unsigned inj = 1, unsigned ej = 1)
{
    Router::Params rp;
    rp.vcMap = VcMap{2, 1, 1};
    rp.vcDepth = 8;
    rp.pipelineDepth = half ? 3 : 4;
    rp.half = half;
    rp.numInjPorts = inj;
    rp.numEjPorts = ej;
    return rp;
}

TEST(RouterConnectivity, FullRouterConnectsEverything)
{
    Topology topo(TopologyParams{});
    DorRouting xy(topo, true);
    Router r(topo.nodeAt(2, 2), topo, xy, routerParams(false));
    for (unsigned in = 0; in < NUM_DIRS; ++in) {
        // Full crossbar, including U-turns (used by Valiant waypoints).
        for (unsigned out = 0; out < NUM_DIRS; ++out) {
            EXPECT_TRUE(r.connectivityAllows(in, out));
        }
        EXPECT_TRUE(r.connectivityAllows(in, NUM_DIRS)); // ejection
    }
    // injection reaches every output
    EXPECT_TRUE(r.connectivityAllows(NUM_DIRS, DIR_WEST));
    EXPECT_TRUE(r.connectivityAllows(NUM_DIRS, NUM_DIRS));
}

TEST(RouterConnectivity, HalfRouterRestrictsToStraightThrough)
{
    Topology topo(cbParams());
    CheckerboardRouting cr(topo);
    Router r(topo.nodeAt(1, 0), topo, cr, routerParams(true));
    // Fig. 13: E<->W and N<->S only.
    EXPECT_TRUE(r.connectivityAllows(DIR_WEST, DIR_EAST));
    EXPECT_TRUE(r.connectivityAllows(DIR_EAST, DIR_WEST));
    EXPECT_TRUE(r.connectivityAllows(DIR_NORTH, DIR_SOUTH));
    EXPECT_TRUE(r.connectivityAllows(DIR_SOUTH, DIR_NORTH));
    EXPECT_FALSE(r.connectivityAllows(DIR_WEST, DIR_NORTH));
    EXPECT_FALSE(r.connectivityAllows(DIR_WEST, DIR_SOUTH));
    EXPECT_FALSE(r.connectivityAllows(DIR_NORTH, DIR_EAST));
    EXPECT_FALSE(r.connectivityAllows(DIR_SOUTH, DIR_WEST));
    // Injection and ejection connect to everything (Sec. IV-A).
    for (unsigned d = 0; d < NUM_DIRS; ++d) {
        EXPECT_TRUE(r.connectivityAllows(NUM_DIRS, d));
        EXPECT_TRUE(r.connectivityAllows(d, NUM_DIRS));
    }
}

/** Two-router fixture: A --east--> B, NI sink at B, channel arrivals
 *  delivered through an arrival wheel as in a network. */
class TwoRouterTest : public ::testing::Test, public EjectionSink
{
  protected:
    TwoRouterTest()
        : topo_(TopologyParams{}), xy_(topo_, true),
          a_(topo_.nodeAt(0, 0), topo_, xy_, routerParams()),
          b_(topo_.nodeAt(1, 0), topo_, xy_, routerParams()),
          ab_flit_(1), ab_credit_(1), active_(2)
    {
        arrival_.configure(2, 1, &active_);
        a_.setArrival(&arrival_, 0);
        b_.setArrival(&arrival_, 1);
        a_.connectOutput(DIR_EAST, &ab_flit_, &ab_credit_);
        b_.connectInput(DIR_WEST, &ab_flit_, &ab_credit_);
        b_.setEjectionSink(this);
        a_.setEjectionSink(this);
    }

    bool ejectReady(unsigned) const override { return true; }

    void
    ejectFlit(unsigned, Flit &&flit, Cycle now) override
    {
        ejected_.emplace_back(now, std::move(flit));
    }

    /** Injects a packet at A addressed to B and runs `cycles` more
     *  simulated cycles (time continues across calls). */
    void
    run(unsigned size_flits, Cycle cycles)
    {
        auto pkt = makePacket();
        pkt->src = topo_.nodeAt(0, 0);
        pkt->dst = topo_.nodeAt(1, 0);
        pkt->sizeFlits = size_flits;
        pkt->protoClass = 0;
        pkt->mode = RouteMode::XY;
        std::vector<Flit> flits;
        makeFlits(pkt, flits);
        std::size_t next = 0;
        const Cycle end = now_ + cycles;
        for (; now_ < end; ++now_) {
            arrival_.fire(now_);
            a_.readInputs(now_);
            b_.readInputs(now_);
            if (next < flits.size() &&
                a_.injFreeSlots(0, 0) > 0) {
                Flit f = flits[next++];
                f.vc = 0;
                a_.injectFlit(0, std::move(f), now_);
            }
            a_.compute(now_);
            b_.compute(now_);
        }
    }

    Cycle now_ = 0;

    Topology topo_;
    DorRouting xy_;
    Router a_;
    Router b_;
    Channel<Flit> ab_flit_;
    Channel<Credit> ab_credit_;
    ActiveSet active_;
    ArrivalScheduler arrival_;
    std::vector<std::pair<Cycle, Flit>> ejected_;
};

TEST_F(TwoRouterTest, SingleFlitHopLatency)
{
    run(1, 30);
    ASSERT_EQ(ejected_.size(), 1u);
    // Head injected at cycle 0 spends pipelineDepth = 4 cycles in A,
    // 1 cycle on the channel (arrives B at 5), and 4 cycles in B:
    // ejects at 9.  Per-hop latency is pipeline + channel = 5 cycles
    // (Sec. III-B's 5-cycle hops).
    EXPECT_EQ(ejected_[0].first, 9u);
}

TEST_F(TwoRouterTest, MultiFlitWormKeepsOrderAndStreams)
{
    run(4, 40);
    ASSERT_EQ(ejected_.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(ejected_[i].second.seq, i);
    // Body flits stream one per cycle behind the head.
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(ejected_[i].first, ejected_[i - 1].first + 1);
    EXPECT_EQ(a_.flitsTraversed(), 4u);
    EXPECT_EQ(b_.flitsTraversed(), 4u);
    EXPECT_TRUE(a_.empty());
    EXPECT_TRUE(b_.empty());
}

TEST_F(TwoRouterTest, CreditsRecoverAfterDrain)
{
    // Two back-to-back 8-flit packets exactly fill the 8-deep VC; the
    // second can only flow as credits return.
    run(8, 10);
    run(8, 120);
    EXPECT_EQ(ejected_.size(), 16u);
    EXPECT_TRUE(a_.empty());
    EXPECT_TRUE(b_.empty());
}

TEST(Router, AggressiveSingleCycleRouter)
{
    Topology topo{TopologyParams{}};
    DorRouting xy(topo, true);
    auto rp = routerParams();
    rp.pipelineDepth = 1;
    Router a(topo.nodeAt(0, 0), topo, xy, rp);
    struct Sink : EjectionSink
    {
        bool ejectReady(unsigned) const override { return true; }
        void ejectFlit(unsigned, Flit &&, Cycle now) override
        {
            eject_time = now;
        }
        Cycle eject_time = INVALID_CYCLE;
    } sink;
    a.setEjectionSink(&sink);

    auto pkt = makePacket();
    pkt->src = topo.nodeAt(1, 0);
    pkt->dst = topo.nodeAt(0, 0);
    pkt->sizeFlits = 1;
    pkt->mode = RouteMode::XY;
    std::vector<Flit> flits;
    makeFlits(pkt, flits);
    flits[0].vc = 0;
    a.injectFlit(0, std::move(flits[0]), 5);
    a.compute(5);
    a.compute(6);
    // 1-cycle router: one cycle of residency (2-cycle hops with the
    // 1-cycle channel, vs 5 for the 4-stage baseline).
    EXPECT_EQ(sink.eject_time, 6u);
}

TEST(Router, MultiEjectionPortsRoundRobin)
{
    Topology topo{TopologyParams{}};
    DorRouting xy(topo, true);
    Router r(topo.nodeAt(0, 0), topo, xy, routerParams(false, 1, 2));
    struct Sink : EjectionSink
    {
        bool ejectReady(unsigned) const override { return true; }
        void ejectFlit(unsigned port, Flit &&, Cycle) override
        {
            ports.push_back(port);
        }
        std::vector<unsigned> ports;
    } sink;
    r.setEjectionSink(&sink);

    // Two 1-flit packets on different VCs eject via different ports.
    for (int i = 0; i < 2; ++i) {
        auto pkt = makePacket();
        pkt->src = topo.nodeAt(1, 0);
        pkt->dst = topo.nodeAt(0, 0);
        pkt->sizeFlits = 1;
        pkt->protoClass = i; // distinct VCs
        pkt->mode = RouteMode::XY;
        std::vector<Flit> flits;
        makeFlits(pkt, flits);
        flits[0].vc = static_cast<unsigned>(i);
        r.injectFlit(0, std::move(flits[0]), 0);
    }
    for (Cycle t = 0; t < 10; ++t)
        r.compute(t);
    ASSERT_EQ(sink.ports.size(), 2u);
    EXPECT_NE(sink.ports[0], sink.ports[1]);
}

TEST(Router, AgePriorityGrantsOldestPacket)
{
    // Two packets on different VCs contend for the same output; with
    // age priority the one that entered the network earlier must win
    // switch allocation, regardless of round-robin state.
    Topology topo{TopologyParams{}};
    DorRouting xy(topo, true);
    auto rp = routerParams();
    rp.agePriority = true;
    rp.pipelineDepth = 1;
    Router r(topo.nodeAt(0, 0), topo, xy, rp);
    Channel<Flit> out(1);
    Channel<Credit> credit(1);
    r.connectOutput(DIR_EAST, &out, &credit);

    auto mk = [&](int proto, Cycle injected) {
        auto pkt = makePacket();
        pkt->src = topo.nodeAt(0, 0);
        pkt->dst = topo.nodeAt(3, 0); // east
        pkt->sizeFlits = 1;
        pkt->protoClass = proto;
        pkt->mode = RouteMode::XY;
        pkt->injectedCycle = injected;
        std::vector<Flit> flits;
        makeFlits(pkt, flits);
        flits[0].vc = static_cast<unsigned>(proto);
        return flits[0];
    };
    // Newer packet on VC0, older packet on VC1.
    r.injectFlit(0, mk(0, /*injected=*/50), 100);
    Flit old_flit = mk(1, /*injected=*/10);
    const auto old_pkt = old_flit.pkt;
    r.injectFlit(0, std::move(old_flit), 100);

    r.compute(100); // RC + VA
    r.compute(101); // SA + ST (1-cycle residency elapsed)
    auto first = out.receive(102);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->pkt.get(), old_pkt.get());
}

TEST(Router, InjFreeSlotsTracksOccupancy)
{
    Topology topo{TopologyParams{}};
    DorRouting xy(topo, true);
    Router r(topo.nodeAt(0, 0), topo, xy, routerParams());
    EXPECT_EQ(r.injFreeSlots(0, 0), 8u);
    auto pkt = makePacket();
    pkt->src = topo.nodeAt(1, 0);
    pkt->dst = topo.nodeAt(0, 0);
    pkt->sizeFlits = 2;
    std::vector<Flit> flits;
    makeFlits(pkt, flits);
    flits[0].vc = 0;
    r.injectFlit(0, std::move(flits[0]), 0);
    EXPECT_EQ(r.injFreeSlots(0, 0), 7u);
    EXPECT_EQ(r.bufferedFlits(), 1u);
    EXPECT_FALSE(r.empty());
}

/**
 * Recomputes the router's stage-ready and free-VC words from its VC
 * state and output-VC ownership, and expects the kept words to match.
 */
void
expectWordsMatchState(const Router &r)
{
    const unsigned vcs = r.numVcs();
    const unsigned words = (r.numInputs() * vcs + 63) / 64;
    std::vector<std::uint64_t> want(NUM_READY_SETS * words, 0);
    for (unsigned in = 0; in < r.numInputs(); ++in) {
        for (unsigned vc = 0; vc < vcs; ++vc) {
            const VcState st = r.vcState(in, vc);
            const bool buffered = r.vcOccupancy(in, vc) != 0;
            const unsigned i = in * vcs + vc;
            const std::uint64_t bit = std::uint64_t{1} << (i % 64);
            if (st == VcState::IDLE && buffered)
                want[RC_READY * words + i / 64] |= bit;
            if (st == VcState::VC_ALLOC)
                want[VA_READY * words + i / 64] |= bit;
            if (st == VcState::ACTIVE && buffered)
                want[SA_READY * words + i / 64] |= bit;
        }
    }
    for (unsigned s = 0; s < NUM_READY_SETS; ++s) {
        for (unsigned w = 0; w < words; ++w) {
            EXPECT_EQ(r.readyWord(static_cast<ReadySet>(s), w),
                      want[s * words + w])
                << "set " << s << " word " << w;
        }
    }
    for (unsigned o = 0; o < r.numOutputs(); ++o) {
        std::uint64_t free = 0;
        for (unsigned vc = 0; vc < vcs; ++vc) {
            if (!r.outputVcOwned(o, vc))
                free |= std::uint64_t{1} << vc;
        }
        EXPECT_EQ(r.freeVcWord(o), free) << "output " << o;
    }
}

/**
 * Drives one standalone router through every transition that moves a
 * stage-ready bit and audits the words after each step.  Packets A
 * (2 flits) and then C (1 flit) queue on the second-to-last injection
 * port, B (1 flit) on the last; all three eject here and share the
 * single request-class ejection VC.  A's tail arrives only after its
 * head has left.  With `inj_ports` large enough the sets over all input
 * VCs span several words.  Packets use VC 0 of `proto_classes` VCs per
 * port.
 */
void
runStageWordTransitions(unsigned inj_ports, unsigned proto_classes = 2)
{
    Topology topo{TopologyParams{}};
    DorRouting xy(topo, true);
    const NodeId node = topo.nodeAt(0, 0);
    Router::Params rp = routerParams(false, inj_ports, 1);
    rp.vcMap.protoClasses = proto_classes;
    Router r(node, topo, xy, rp);
    struct Sink : EjectionSink
    {
        bool ejectReady(unsigned) const override { return true; }
        void ejectFlit(unsigned, Flit &&f, Cycle) override
        {
            ejected.push_back(f.pkt->id);
        }
        std::vector<std::uint64_t> ejected;
    } sink;
    r.setEjectionSink(&sink);
    auto packet = [&](std::uint64_t id, unsigned size) {
        auto pkt = makePacket();
        pkt->id = id;
        pkt->src = topo.nodeAt(1, 0);
        pkt->dst = node;
        pkt->sizeFlits = size;
        pkt->protoClass = 0;
        pkt->mode = RouteMode::XY;
        std::vector<Flit> flits;
        makeFlits(pkt, flits);
        return flits;
    };
    auto a = packet(1, 2);
    auto b = packet(2, 1);
    auto c = packet(3, 1);
    const unsigned ia = inj_ports - 2; // injection port of A and C
    const unsigned ib = inj_ports - 1; // injection port of B
    const unsigned in_a = NUM_DIRS + ia;
    const unsigned in_b = NUM_DIRS + ib;
    const unsigned ej = NUM_DIRS;
    const auto step = [&](const char *what) {
        SCOPED_TRACE(what);
        expectWordsMatchState(r);
    };

    r.injectFlit(ia, std::move(a[0]), 0);
    step("head arrives at IDLE");
    EXPECT_EQ(r.vcState(in_a, 0), VcState::IDLE);
    r.injectFlit(ib, std::move(b[0]), 0);
    step("second head arrives at IDLE");

    r.compute(0);
    step("RC both heads, VA grants A the only ejection VC");
    EXPECT_EQ(r.vcState(in_a, 0), VcState::ACTIVE);
    EXPECT_EQ(r.vcState(in_b, 0), VcState::VC_ALLOC);
    EXPECT_TRUE(r.outputVcOwned(ej, 0));

    for (Cycle t = 1; t <= 4; ++t)
        r.compute(t);
    step("A's head leaves its VC empty but ACTIVE");
    EXPECT_EQ(r.vcState(in_a, 0), VcState::ACTIVE);
    EXPECT_EQ(r.vcOccupancy(in_a, 0), 0u);

    r.injectFlit(ia, std::move(a[1]), 5);
    step("A's tail arrives at an ACTIVE VC");
    r.injectFlit(ia, std::move(c[0]), 5);
    step("C's head queues behind A's tail");
    for (Cycle t = 5; t <= 9; ++t)
        r.compute(t);
    step("tail leaves with the next packet's head behind it");
    EXPECT_EQ(r.vcState(in_a, 0), VcState::IDLE);
    EXPECT_EQ(r.vcOccupancy(in_a, 0), 1u);
    EXPECT_FALSE(r.outputVcOwned(ej, 0));

    r.compute(10);
    step("RC C; VA grants B; B's last flit popped");
    EXPECT_EQ(r.vcState(in_a, 0), VcState::VC_ALLOC);
    EXPECT_EQ(r.vcState(in_b, 0), VcState::IDLE);
    EXPECT_EQ(r.vcOccupancy(in_b, 0), 0u);

    r.compute(11);
    step("C granted and popped");
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(sink.ejected, (std::vector<std::uint64_t>{1, 1, 2, 3}));
}

TEST(RouterStageWords, TrackEveryTransition)
{
    runStageWordTransitions(2);
}

TEST(RouterStageWords, TrackEveryTransitionMultiWord)
{
    // 4 + 40 inputs x 2 VCs = 88 input VCs: two words per set, and A/C
    // and B sit in the second word.
    runStageWordTransitions(40);
}

TEST(RouterStageWords, TrackEveryTransitionStraddlingWords)
{
    // 4 + 18 inputs x 3 VCs: B's port holds bits 63-65, so its SA
    // candidates straddle the first two words of the set.
    runStageWordTransitions(18, 3);
}

} // namespace
} // namespace tenoc
