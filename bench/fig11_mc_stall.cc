/**
 * @file
 * Figure 11: fraction of time the MC injection ports are blocked,
 * preventing data read out of DRAM from returning to compute nodes.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace tenoc;
    using namespace tenoc::bench;

    banner("Figure 11 - MC reply-path stalls on the baseline mesh",
           "MCs stalled up to ~70% of the time on HH benchmarks");
    const auto telemetry_cfg =
        telemetry::parseTelemetryFlags(argc, argv);
    const double scale = scaleFromArgs(argc, argv);

    const auto base = suites({ConfigId::BASELINE_TB_DOR}, scale)[0];

    std::printf("\n%-6s %-6s %14s %14s %16s\n", "bench", "class",
                "stall (mean)", "stall (max)", "DRAM efficiency");
    double hh_max = 0.0;
    for (const auto &r : base) {
        std::printf("%-6s %-6s %13.1f%% %13.1f%% %16.2f\n",
                    r.abbr.c_str(), trafficClassName(r.cls),
                    100.0 * r.result.mcStallFractionMean,
                    100.0 * r.result.mcStallFractionMax,
                    r.result.dramEfficiency);
        if (r.cls == TrafficClass::HH)
            hh_max = std::max(hh_max, r.result.mcStallFractionMax);
    }
    std::printf("\nmax HH stall fraction: %.1f%% (paper: up to "
                "~70%%)\n", 100.0 * hh_max);
    std::printf("paper shape: LL near zero, LH moderate, HH heavily "
                "stalled - the many-to-few-to-many reply bottleneck.\n");
    runTelemetryWorkload(telemetry_cfg, ConfigId::BASELINE_TB_DOR,
                         scale);
    return 0;
}
