/**
 * @file
 * Experiment driver implementation.
 */

#include "accel/experiments.hh"

#include <cstdlib>

#include "common/log.hh"
#include "telemetry/telemetry.hh"

namespace tenoc
{

ChipResult
runWorkload(const ChipParams &params, const KernelProfile &profile)
{
    return runWorkload(params, profile, nullptr);
}

ChipResult
runWorkload(const ChipParams &params, const KernelProfile &profile,
            telemetry::TelemetryHub *hub)
{
    return runWorkload(params, profile, hub, RunOptions{});
}

ChipResult
runWorkload(const ChipParams &params, const KernelProfile &profile,
            telemetry::TelemetryHub *hub, const RunOptions &opts)
{
    Chip chip(params, profile);
    if (!opts.restoreFrom.empty()) {
        std::string error;
        if (!chip.restoreFromFile(opts.restoreFrom, &error))
            tenoc_fatal("cannot restore checkpoint '",
                        opts.restoreFrom, "': ", error);
    }
    if (opts.checkpointAt != 0) {
        if (opts.checkpointOut.empty())
            tenoc_fatal("checkpoint cycle given without an output "
                        "file");
        chip.scheduleCheckpoint(opts.checkpointAt, opts.checkpointOut);
    } else if (!opts.checkpointOut.empty()) {
        tenoc_fatal("checkpoint output file '", opts.checkpointOut,
                    "' given without a checkpoint cycle");
    }
    if (hub)
        chip.attachTelemetry(*hub);
    chip.setLayerProfile(opts.layerProfile);
    ChipResult result = chip.run();
    if (chip.checkpointPending())
        tenoc_fatal("run ended at icnt cycle ", result.icntCycles,
                    " before the checkpoint armed at cycle ",
                    opts.checkpointAt, "; no snapshot written to '",
                    opts.checkpointOut, "'");
    if (hub)
        hub->writeOutputs(&chip.statGroup());
    return result;
}

std::vector<SuiteRun>
runSuite(const ChipParams &params, double scale)
{
    std::vector<SuiteRun> out;
    for (const auto &profile : workloadSuite()) {
        const KernelProfile scaled =
            scale == 1.0 ? profile : scaleWorkload(profile, scale);
        SuiteRun run;
        run.abbr = profile.abbr;
        run.cls = profile.expectedClass;
        run.result = runWorkload(params, scaled);
        out.push_back(std::move(run));
    }
    return out;
}

std::vector<SuiteRun>
runSuite(ConfigId config, double scale, std::uint64_t seed)
{
    return runSuite(makeConfig(config, seed), scale);
}

double
envScale(double def)
{
    const char *env = std::getenv("TENOC_SCALE");
    if (!env)
        return def;
    const double v = std::atof(env);
    if (v <= 0.0) {
        warn("ignoring invalid TENOC_SCALE='", env, "'");
        return def;
    }
    return v;
}

} // namespace tenoc
