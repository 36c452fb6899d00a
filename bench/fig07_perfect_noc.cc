/**
 * @file
 * Figure 7 (and Figure 8): speedup of a perfect interconnect over the
 * baseline mesh, per benchmark, with the LL/LH/HH classification; and
 * the speedup-vs-MC-injection-rate scatter of Fig. 8.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace tenoc;
    using namespace tenoc::bench;

    banner("Figure 7/8 - perfect-NoC limit study",
           "HM speedup 36% overall, 87% for HH; speedup correlates "
           "with MC injection rate");
    const double scale = scaleFromArgs(argc, argv);

    const auto runs =
        suites({ConfigId::BASELINE_TB_DOR, ConfigId::PERFECT}, scale);
    const auto &base = runs[0];
    const auto &perf = runs[1];
    const auto sp = speedups(base, perf);

    std::printf("\n--- Fig. 7: perfect-NoC speedup per benchmark ---\n");
    std::printf("%-6s %-6s %9s %10s %12s %10s\n", "bench", "class",
                "speedup", "accepted", "(B/cyc/node)", "measured");
    unsigned misclassified = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const auto measured =
            classify(sp[i], perf[i].result.acceptedBytesPerNode);
        misclassified += (measured != base[i].cls);
        std::printf("%-6s %-6s %9s %10.2f %12s %10s%s\n",
                    base[i].abbr.c_str(),
                    trafficClassName(base[i].cls), pct(sp[i]).c_str(),
                    perf[i].result.acceptedBytesPerNode, "",
                    trafficClassName(measured),
                    measured != base[i].cls ? "  <-mismatch" : "");
    }
    std::printf("\nHM speedup (all): %s   (paper: +36%%)\n",
                pct(harmonicMeanSpeedup(base, perf)).c_str());
    printClassMeans(base, perf);
    std::printf("  (paper: LL small, HH +87%%; Rodinia +42%%)\n");
    std::printf("  class mismatches vs paper grouping: %u / 31\n",
                misclassified);

    std::printf("\n--- Fig. 8: speedup vs MC injection rate "
                "(perfect NoC) ---\n");
    std::printf("%-6s %-6s %22s %9s\n", "bench", "class",
                "MC inj rate [flits/cyc]", "speedup");
    for (std::size_t i = 0; i < base.size(); ++i) {
        std::printf("%-6s %-6s %22.4f %9s\n", base[i].abbr.c_str(),
                    trafficClassName(base[i].cls),
                    perf[i].result.mcInjectionRate,
                    pct(sp[i]).c_str());
    }
    std::printf("\npaper shape: speedups rise with the MC injection "
                "rate (the read-reply path is the bottleneck).\n");
    return 0;
}
