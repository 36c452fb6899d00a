/**
 * @file
 * Design-space exploration example: evaluate a user-defined NoC
 * configuration (mesh size, placement, routing, channel width, VCs,
 * MC ports) on a chosen workload and report throughput-effectiveness
 * next to the paper's named designs.
 *
 * Usage: design_space [ABBR] [scale]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/experiments.hh"
#include "area/area_model.hh"

using namespace tenoc;

namespace
{

/** Evaluates one chip configuration on one workload. */
void
evaluate(const char *label, const ChipParams &params,
         const KernelProfile &profile)
{
    const AreaModel model;
    const auto noc = model.meshArea(areaSpecFor(params));
    const double chip = model.chipArea(noc);
    const ChipResult r = runWorkload(params, profile);
    std::printf("%-32s IPC %7.2f  noc %6.2f mm^2  chip %7.2f  "
                "IPC/mm^2 %.5f%s\n",
                label, r.ipc, noc.nocTotal(), chip,
                throughputEffectiveness(r.ipc, chip),
                r.timedOut ? "  (timed out)" : "");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string abbr = argc > 1 ? argv[1] : "KM";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;
    const KernelProfile profile =
        scaleWorkload(findWorkload(abbr), scale);
    std::printf("exploring NoC designs on %s (%s)\n\n",
                profile.abbr.c_str(), profile.name.c_str());

    // The paper's named designs...
    for (ConfigId id : {ConfigId::BASELINE_TB_DOR, ConfigId::TB_DOR_2X,
                        ConfigId::CP_CR_4VC,
                        ConfigId::THROUGHPUT_EFFECTIVE,
                        ConfigId::CP_CR_2INJ_SINGLE}) {
        evaluate(configName(id), makeConfig(id), profile);
    }

    // ...and a custom design: a checkerboard mesh with 12-byte
    // channels, 2 lanes per class, and 3 injection ports at MCs.
    ChipParams custom = makeConfig(ConfigId::CP_CR_4VC);
    custom.mesh.flitBytes = 12;
    custom.mesh.vcsPerClass = 2;
    custom.mesh.mcInjPorts = 3;
    evaluate("custom 12B/8VC/3-inj", custom, profile);

    std::printf("\nthroughput-effectiveness (IPC/mm^2) is the paper's "
                "figure of merit: higher is better.\n");
    return 0;
}
