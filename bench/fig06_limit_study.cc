/**
 * @file
 * Figure 6: limit study with a zero-latency network whose aggregate
 * bandwidth is capped at a fraction of off-chip DRAM bandwidth.
 * Reports application throughput (normalized to infinite bandwidth)
 * and throughput per estimated area cost; the paper finds the
 * per-cost optimum at a bisection ratio of 0.7-0.8, matching a mesh
 * with 16-byte channels.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace tenoc;
    using namespace tenoc::bench;

    banner("Figure 6 - balanced-design limit study",
           "IPC saturates near ratio 0.8 (93% of infinite BW); "
           "IPC/cost peaks at 0.7-0.8");
    const double scale = scaleFromArgs(argc, argv, 0.5);

    // Infinite-bandwidth reference (perfect network) first, then one
    // bandwidth-capped network per ratio, all in one parallel sweep.
    const std::vector<double> ratios = {0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                                        0.8, 0.9, 1.0, 1.2, 1.4, 1.6};
    std::vector<ChipParams> configs = {makeConfig(ConfigId::PERFECT)};
    for (double x : ratios)
        configs.push_back(makeBwLimitedConfig(x));
    std::fprintf(stderr,
                 "[bench] running suites: PERFECT and %zu BW ratios "
                 "(scale %.2f, %u threads)\n",
                 ratios.size(), scale, sweepThreads());
    const auto runs = suites(configs, scale);
    const double inf_ipc = harmonicMeanIpc(runs[0]);

    const AreaModel model;
    std::printf("\n%-10s %10s %14s %16s\n", "BW ratio", "HM IPC",
                "IPC (norm.)", "IPC/cost (norm.)");

    double best_ratio = 0.0;
    double best_eff = 0.0;
    std::vector<std::tuple<double, double, double>> rows;
    for (std::size_t i = 0; i < ratios.size(); ++i) {
        const double x = ratios[i];
        const double ipc = harmonicMeanIpc(runs[i + 1]);
        // NoC area scales with the square of channel bandwidth
        // (Sec. III-A); ratio 0.816 corresponds to 16B channels.
        MeshAreaSpec spec;
        spec.numMcs = 8;
        spec.channelBytes = 16.0 * x / 0.816;
        const double area = model.chipArea(model.meshArea(spec));
        const double eff = ipc / area;
        rows.emplace_back(x, ipc, eff);
        if (eff > best_eff) {
            best_eff = eff;
            best_ratio = x;
        }
    }
    const double eff_norm = best_eff;
    for (auto [x, ipc, eff] : rows) {
        std::printf("%-10.2f %10.1f %14.3f %16.3f\n", x, ipc,
                    ipc / inf_ipc, eff / eff_norm);
    }
    std::printf("\nper-cost optimum at BW ratio %.2f (paper: 0.7-0.8; "
                "0.816 = 2D mesh with 16-byte channels).\n",
                best_ratio);
    return 0;
}
