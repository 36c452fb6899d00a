/**
 * @file
 * Closed-loop manycore-accelerator chip simulator.
 *
 * Assembles 28 SIMT cores, the NoC (mesh / double mesh / ideal), and
 * 8 MC nodes (L2 bank + FR-FCFS GDDR3) across three clock domains
 * (Table II: core 1296 MHz, interconnect + L2 602 MHz, DRAM 1107 MHz)
 * and runs a kernel profile to completion, reporting application-level
 * throughput (scalar IPC) and the network/memory statistics used by
 * the paper's figures.
 */

#ifndef TENOC_ACCEL_CHIP_HH
#define TENOC_ACCEL_CHIP_HH

#include <memory>
#include <vector>

#include "accel/chip_config.hh"
#include "accel/mc_node.hh"
#include "common/clock.hh"
#include "gpu/simt_core.hh"
#include "noc/ideal_network.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{

/** Results of one closed-loop run. */
struct ChipResult
{
    double ipc = 0.0;              ///< scalar instructions / core cycle
    std::uint64_t scalarInsts = 0;
    Cycle coreCycles = 0;
    Cycle icntCycles = 0;
    Cycle memCycles = 0;
    bool timedOut = false;

    double mcStallFractionMean = 0.0; ///< Fig. 11
    double mcStallFractionMax = 0.0;
    double mcInjectionRate = 0.0;     ///< flits/cycle/MC node (Fig. 8)
    double avgNetLatency = 0.0;       ///< Fig. 10
    double avgTotalLatency = 0.0;
    double acceptedBytesPerNode = 0.0;///< classification (Sec. III-B)
    /** Ratio of per-MC to per-core injected bytes/cycle (the paper
     *  reports 6.9x on average, Sec. III-D). */
    double mcToCoreInjectionRatio = 0.0;
    double dramEfficiency = 0.0;      ///< Fig. 19 discussion
    double dramRowHitRate = 0.0;
    std::uint64_t packetsEjected = 0;
};

/**
 * Host wall time of Chip::run split by layer, accumulated while
 * attached (Chip::setLayerProfile, micro_simulator --profile).  What
 * the four fields leave of a run's wall time is the clock loop, the
 * quiescence checks and checkpoints.
 */
struct ChipLayerProfile
{
    std::uint64_t coresNs = 0;   ///< SIMT cores (every core's cycle)
    std::uint64_t mcL2Ns = 0;    ///< MC/L2 (McNode::icntCycle)
    std::uint64_t dramNs = 0;    ///< DRAM (McNode::memCycle)
    std::uint64_t networkNs = 0; ///< the network's cycle
};

class Chip
{
  public:
    /**
     * @param params chip configuration
     * @param profile kernel to execute
     */
    Chip(const ChipParams &params, const KernelProfile &profile);
    ~Chip();

    /**
     * Runs the kernel to completion (or the cycle cap).  Resumes from
     * the kernel/phase position left by restore(); a fresh chip starts
     * at kernel 0.
     */
    ChipResult run();

    /**
     * Arms a one-shot checkpoint: once the interconnect clock reaches
     * `icnt_cycle` during run(), the full simulator state is sealed
     * into `path` and the run continues.  fatal() if the file cannot
     * be written or the network kind cannot be checkpointed.
     */
    void scheduleCheckpoint(Cycle icnt_cycle, std::string path);

    /** True while a checkpoint armed by scheduleCheckpoint() has not
     *  been written (e.g. the run ended before the armed cycle). */
    bool checkpointPending() const
    {
        return checkpoint_at_ != 0 && !checkpoint_written_;
    }

    /** Serializes clocks, network, MCs, and cores. */
    void save(SnapshotWriter &w) const;

    /** Restores state written by save() into an identically
     *  configured chip (same config file + overrides + workload). */
    void restore(SnapshotReader &r);

    /** save() sealed into `path`. @return false + error on I/O. */
    bool saveToFile(const std::string &path, std::string *error) const;

    /** Restores from a sealed snapshot file.  @return false + error
     *  on I/O or a version/format mismatch; fatal() on a blob that
     *  does not match this chip's structure. */
    bool restoreFromFile(const std::string &path, std::string *error);

    Network &network() { return *net_; }
    const Topology &topology() const { return net_->topology(); }

    /**
     * Attaches a telemetry hub before run(): registers interval-
     * sampler probes (per-core instructions, DRAM row hits, MC stalls,
     * network flit flow), wires flit tracers into the network, and
     * ticks the sampler from the interconnect clock.
     */
    void attachTelemetry(telemetry::TelemetryHub &hub);

    /** Full chip statistics hierarchy (root group "chip"). */
    const StatGroup &statGroup() const { return stats_root_; }

    /** Accumulates run()'s host time per layer into `profile` (null
     *  detaches; detached, the split costs one test per layer call). */
    void
    setLayerProfile(ChipLayerProfile *profile)
    {
        layer_profile_ = profile;
    }

  private:
    class CorePort;
    class CoreSink;

    void buildNetwork();
    void buildStatModel();
    void writeCheckpoint();
    void icntTick();
    void coreTick();
    void memTick();
    /** Runs `f`, adding its host time to `slot` of the attached layer
     *  profile, if any. */
    template <typename F>
    void timeLayer(std::uint64_t ChipLayerProfile::*slot, F &&f);
    bool allCoresDone() const;
    ChipResult collect(bool timed_out) const;

    ChipParams params_;
    KernelProfile profile_;

    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<SimtCore>> cores_;
    std::vector<std::unique_ptr<CorePort>> ports_;
    std::vector<std::unique_ptr<CoreSink>> sinks_;
    std::vector<std::unique_ptr<McNode>> mcs_;
    std::vector<NodeId> core_nodes_;

    ClockDomainSet clocks_;
    ClockDomainSet::DomainId core_dom_ = 0;
    ClockDomainSet::DomainId icnt_dom_ = 0;
    ClockDomainSet::DomainId mem_dom_ = 0;

    Cycle icnt_now_ = 0;
    Cycle core_now_ = 0;
    Cycle mem_now_ = 0;

    /** Kernel-sequence position, serialized so a restored chip resumes
     *  run() exactly where the checkpointed one stood. */
    enum class Phase : std::uint8_t
    {
        RUNNING, ///< executing warps until every core retires
        DRAINING ///< kernel-launch barrier: draining NoC/MC/DRAM
    };
    unsigned kernel_ = 0;
    Phase phase_ = Phase::RUNNING;

    Cycle checkpoint_at_ = 0; ///< 0 = no checkpoint armed
    std::string checkpoint_path_;
    bool checkpoint_written_ = false;

    // Statistics hierarchy (groups are registries of pointers into the
    // components above, so they must outlive nothing).
    StatGroup stats_root_{"chip"};
    StatGroup net_group_{"net"};
    std::vector<std::unique_ptr<StatGroup>> core_groups_;
    std::vector<std::unique_ptr<StatGroup>> mc_groups_;
    std::vector<std::unique_ptr<StatGroup>> dram_groups_;

    telemetry::TelemetryHub *hub_ = nullptr;
    ChipLayerProfile *layer_profile_ = nullptr;
};

} // namespace tenoc

#endif // TENOC_ACCEL_CHIP_HH
