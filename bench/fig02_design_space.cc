/**
 * @file
 * Figure 2: the throughput-effective design space.  Plots each design
 * as (average application throughput [IPC], 1/chip-area [1/mm^2]);
 * designs closer to the top right are more throughput-effective.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace tenoc;
    using namespace tenoc::bench;

    banner("Figure 2 - throughput-effective design space",
           "Balanced mesh / 2x BW / Thr.Eff. / Ideal NoC scatter; "
           "curves of constant IPC/mm^2");
    const double scale = scaleFromArgs(argc, argv);

    struct Point
    {
        const char *label;
        ConfigId id;
        bool ideal_area;
    };
    const Point points[] = {
        {"Balanced Mesh (Sec. III)", ConfigId::BASELINE_TB_DOR, false},
        {"2x BW", ConfigId::TB_DOR_2X, false},
        {"Thr. Eff. (Sec. IV)", ConfigId::THROUGHPUT_EFFECTIVE, false},
        {"Thr. Eff. single-net variant", ConfigId::CP_CR_2INJ_SINGLE,
         false},
        {"Ideal NoC", ConfigId::PERFECT, true},
    };

    std::vector<ConfigId> ids;
    for (const auto &pt : points)
        ids.push_back(pt.id);
    const auto runs = suites(ids, scale);
    std::printf("\n%-30s %10s %12s %14s %12s\n", "design", "HM IPC",
                "area [mm^2]", "1/area [1/mm2]", "IPC/mm^2");
    double base_eff = 0.0;
    for (std::size_t i = 0; i < std::size(points); ++i) {
        const Point &pt = points[i];
        const double ipc = harmonicMeanIpc(runs[i]);
        // An ideal NoC has zero interconnect area (Sec. I).
        const double area = pt.ideal_area ? AreaModel::kComputeAreaMm2
                                          : chipAreaFor(pt.id);
        const double eff = throughputEffectiveness(ipc, area);
        if (pt.id == ConfigId::BASELINE_TB_DOR)
            base_eff = eff;
        std::printf("%-30s %10.1f %12.1f %14.6f %12.5f", pt.label, ipc,
                    area, 1.0 / area, eff);
        if (base_eff > 0.0)
            std::printf("  (%s vs baseline)", pct(eff / base_eff).c_str());
        std::printf("\n");
    }
    std::printf("\npaper shape: Thr.Eff. sits closest to the Ideal-NoC "
                "iso-IPC/mm^2 curve; 2x BW gains IPC but loses area "
                "(52.95%% NoC overhead).\n");
    return 0;
}
