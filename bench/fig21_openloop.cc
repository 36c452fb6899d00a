/**
 * @file
 * Figure 21: open-loop latency versus offered load for the
 * many-to-few-to-many pattern (1-flit requests from 28 compute nodes,
 * 4-flit replies from 8 MCs), uniform-random and hotspot variants,
 * across TB-DOR, CP-DOR, CP-CR, CP-CR-2P, and 2x-TB-DOR.
 */

#include "common.hh"
#include "noc/openloop.hh"

namespace
{

using namespace tenoc;

MeshNetworkParams
netFor(ConfigId id)
{
    // The paper's open-loop runs use a single network with two
    // logical (request/reply) networks even for the 2P data point.
    ChipParams p = makeConfig(id);
    MeshNetworkParams net = p.mesh;
    return net;
}

struct Curve
{
    const char *label;
    MeshNetworkParams net;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace tenoc;
    using namespace tenoc::bench;

    banner("Figure 21 - open-loop latency vs offered load",
           "saturation: TB-DOR < CP-DOR ~ CP-CR < CP-CR-2P < 2x; "
           "hotspot amplifies the gap");
    const double scale = scaleFromArgs(argc, argv);
    (void)scale; // open-loop runs have fixed warmup/measure windows

    MeshNetworkParams two_p = netFor(ConfigId::CP_CR_4VC);
    two_p.mcInjPorts = 2;
    const Curve curves[] = {
        {"TB-DOR", netFor(ConfigId::BASELINE_TB_DOR)},
        {"CP-DOR", netFor(ConfigId::CP_DOR_2VC)},
        {"CP-CR", netFor(ConfigId::CP_CR_4VC)},
        {"CP-CR-2P", two_p},
        {"2x-TB-DOR", netFor(ConfigId::TB_DOR_2X)},
    };

    // Each (hotspot, curve) pair is one task on the sweep pool.  It
    // sweeps the offered load upward and stops at the first saturated
    // rate: every higher rate saturates too, and prints as "sat".
    const double hotspots[] = {0.0, 0.2};
    const std::size_t n_curves = std::size(curves);
    const auto sweeps =
        sweepMap(std::size(hotspots) * n_curves, [&](std::size_t i) {
            const auto &c = curves[i % n_curves];
            OpenLoopParams p;
            p.net = c.net;
            p.hotspotFraction = hotspots[i / n_curves];
            p.seed = 2024;
            // Packet sizes in flits follow the channel width
            // (8-byte requests, 64-byte replies).
            p.requestFlits = flitsForBytes(8, p.net.flitBytes);
            p.replyFlits = flitsForBytes(64, p.net.flitBytes);
            return sweepOpenLoop(p, 0.01, 0.01, 0.13);
        });

    for (std::size_t h = 0; h < std::size(hotspots); ++h) {
        const double hotspot = hotspots[h];
        std::printf("\n--- %s many-to-few-to-many (%s) ---\n",
                    hotspot == 0.0 ? "Uniform random" : "Hotspot",
                    hotspot == 0.0 ? "Fig. 21(a)"
                                   : "Fig. 21(b): 20% to one MC");
        std::printf("%-10s | %s\n", "rate",
                    "average packet latency per configuration");
        std::printf("%-10s |", "");
        for (const auto &c : curves)
            std::printf(" %12s", c.label);
        std::printf("\n");
        std::size_t ri = 0;
        for (double rate = 0.01; rate <= 0.13 + 1e-12;
             rate += 0.01, ++ri) {
            std::printf("%-10.3f |", rate);
            for (std::size_t ci = 0; ci < n_curves; ++ci) {
                const auto &sweep = sweeps[h * n_curves + ci];
                if (ri >= sweep.size() || sweep[ri].saturated)
                    std::printf(" %12s", "sat");
                else
                    std::printf(" %12.1f", sweep[ri].avgLatency);
            }
            std::printf("\n");
        }
    }
    std::printf("\npaper shape: throughput is limited by the "
                "many-to-few-to-many bottleneck; staggered placement "
                "helps uniform traffic most, extra injection ports "
                "help hotspot traffic most.\n");
    return 0;
}
