/**
 * @file
 * Experiment drivers shared by the benchmark harnesses: run one
 * workload or the whole Table I suite under a named configuration.
 */

#ifndef TENOC_ACCEL_EXPERIMENTS_HH
#define TENOC_ACCEL_EXPERIMENTS_HH

#include <vector>

#include "accel/metrics.hh"
#include "gpu/workloads.hh"

namespace tenoc
{

/** Runs one workload on one chip configuration. */
ChipResult runWorkload(const ChipParams &params,
                       const KernelProfile &profile);

/**
 * Runs one workload with telemetry: attaches `hub` to the chip before
 * the run and writes every requested output file afterwards (the
 * metrics export uses the chip's full StatGroup hierarchy).  A null
 * hub behaves exactly like the plain overload.
 */
ChipResult runWorkload(const ChipParams &params,
                       const KernelProfile &profile,
                       telemetry::TelemetryHub *hub);

/** Options for one run: checkpoint/restore (docs/robustness.md) and
 *  the host-time layer split. */
struct RunOptions
{
    /** Interconnect cycle to checkpoint at during the run (0 = off). */
    Cycle checkpointAt = 0;
    /** Snapshot file written when checkpointAt triggers. */
    std::string checkpointOut;
    /** Snapshot file to resume from before running (empty = fresh). */
    std::string restoreFrom;
    /** Receives the run's host time per layer (null = not split). */
    ChipLayerProfile *layerProfile = nullptr;
};

/**
 * Runs one workload with checkpoint/restore: restores the chip from
 * `opts.restoreFrom` if given (fatal on mismatch), arms a one-shot
 * checkpoint if `opts.checkpointAt` is set, then runs to completion.
 * The chip must be configured identically to the checkpointing run.
 * fatal() if `checkpointAt` and `checkpointOut` are not given together,
 * or if the run ends before the armed checkpoint is written.
 */
ChipResult runWorkload(const ChipParams &params,
                       const KernelProfile &profile,
                       telemetry::TelemetryHub *hub,
                       const RunOptions &opts);

/**
 * Runs the full suite.  `scale` shrinks kernel lengths for quick runs
 * (1.0 = full length).
 */
std::vector<SuiteRun> runSuite(const ChipParams &params,
                               double scale = 1.0);

/** Convenience: run the suite under a named configuration. */
std::vector<SuiteRun> runSuite(ConfigId config, double scale = 1.0,
                               std::uint64_t seed = 1);

/**
 * Reads the TENOC_SCALE environment variable (default `def`), used by
 * benches so CI can run shortened experiments.
 */
double envScale(double def = 1.0);

} // namespace tenoc

#endif // TENOC_ACCEL_EXPERIMENTS_HH
