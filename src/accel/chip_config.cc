/**
 * @file
 * Named configuration construction.
 */

#include "accel/chip_config.hh"

#include <set>

#include "common/log.hh"
#include "noc/routing.hh"

namespace tenoc
{

const char *
configName(ConfigId id)
{
    switch (id) {
      case ConfigId::BASELINE_TB_DOR: return "TB-DOR (baseline)";
      case ConfigId::TB_DOR_2X: return "TB-DOR 2x-BW";
      case ConfigId::TB_DOR_1CYC: return "TB-DOR 1-cycle routers";
      case ConfigId::PERFECT: return "Perfect NoC";
      case ConfigId::CP_DOR_2VC: return "CP-DOR 2VC";
      case ConfigId::CP_DOR_4VC: return "CP-DOR 4VC";
      case ConfigId::CP_CR_4VC: return "CP-CR 4VC";
      case ConfigId::CP_CR_SINGLE_16B_4VC: return "CP-CR single 16B 4VC";
      case ConfigId::CP_CR_DOUBLE: return "CP-CR double";
      case ConfigId::CP_CR_DOUBLE_2INJ: return "CP-CR double 2-inj";
      case ConfigId::CP_CR_DOUBLE_2EJ: return "CP-CR double 2-ej";
      case ConfigId::CP_CR_DOUBLE_2INJ2EJ:
        return "CP-CR double 2-inj 2-ej";
      case ConfigId::THROUGHPUT_EFFECTIVE:
        return "Throughput-Effective";
      case ConfigId::CP_CR_2INJ_SINGLE:
        return "CP-CR 16B 2-inj (single)";
    }
    return "unknown";
}

ChipParams
makeConfig(ConfigId id, std::uint64_t seed)
{
    ChipParams p;
    p.seed = seed;
    p.mesh.seed = seed * 2654435761ULL + 17;
    p.mesh.topo.rows = 6;
    p.mesh.topo.cols = 6;
    p.mesh.topo.numMcs = 8;
    p.mc.numChannels = 8;

    switch (id) {
      case ConfigId::BASELINE_TB_DOR:
        break;
      case ConfigId::TB_DOR_2X:
        p.mesh.flitBytes = 32;
        break;
      case ConfigId::TB_DOR_1CYC:
        p.mesh.pipelineDepth = 1;
        p.mesh.halfPipelineDepth = 1;
        break;
      case ConfigId::PERFECT:
        p.netKind = NetKind::PERFECT;
        break;
      case ConfigId::CP_DOR_2VC:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        break;
      case ConfigId::CP_DOR_4VC:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.vcsPerClass = 2;
        break;
      case ConfigId::CP_CR_4VC:
      case ConfigId::CP_CR_SINGLE_16B_4VC:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.routing = "cr";
        break;
      case ConfigId::CP_CR_2INJ_SINGLE:
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.routing = "cr";
        p.mesh.mcInjPorts = 2;
        break;
      case ConfigId::CP_CR_DOUBLE:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.routing = "cr";
        break;
      case ConfigId::CP_CR_DOUBLE_2INJ:
      case ConfigId::THROUGHPUT_EFFECTIVE:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.routing = "cr";
        p.mesh.mcInjPorts = 2;
        break;
      case ConfigId::CP_CR_DOUBLE_2EJ:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.routing = "cr";
        p.mesh.mcEjPorts = 2;
        break;
      case ConfigId::CP_CR_DOUBLE_2INJ2EJ:
        p.netKind = NetKind::DOUBLE;
        p.mesh.topo.placement = McPlacement::CHECKERBOARD;
        p.mesh.topo.checkerboardRouters = true;
        p.mesh.routing = "cr";
        p.mesh.mcInjPorts = 2;
        p.mesh.mcEjPorts = 2;
        break;
    }
    return p;
}

double
dramBandwidthFlitsPerIcntCycle(const ChipParams &p)
{
    // 8 MCs x 16 B per memory clock, expressed in interconnect-clock
    // flits (footnote 3 of the paper).
    const double bytes_per_mclk =
        static_cast<double>(p.mc.numChannels) *
        (p.mc.dram.timing.busBytes * 2.0);
    const double bytes_per_icnt =
        bytes_per_mclk * (p.memClockMhz / p.icntClockMhz);
    return bytes_per_icnt / 16.0; // 16-byte flits
}

ChipParams
makeBwLimitedConfig(double dram_bw_fraction, std::uint64_t seed)
{
    ChipParams p = makeConfig(ConfigId::BASELINE_TB_DOR, seed);
    p.netKind = NetKind::BW_LIMITED;
    p.idealFlitsPerCycle =
        dram_bw_fraction * dramBandwidthFlitsPerIcntCycle(p);
    return p;
}

ConfigId
configIdFromName(const std::string &name)
{
    if (name == "baseline" || name == "tb-dor")
        return ConfigId::BASELINE_TB_DOR;
    if (name == "2x")
        return ConfigId::TB_DOR_2X;
    if (name == "1cyc")
        return ConfigId::TB_DOR_1CYC;
    if (name == "perfect")
        return ConfigId::PERFECT;
    if (name == "cp" || name == "cp-dor")
        return ConfigId::CP_DOR_2VC;
    if (name == "cp-dor-4vc")
        return ConfigId::CP_DOR_4VC;
    if (name == "cp-cr")
        return ConfigId::CP_CR_4VC;
    if (name == "double")
        return ConfigId::CP_CR_DOUBLE;
    if (name == "thr-eff")
        return ConfigId::THROUGHPUT_EFFECTIVE;
    if (name == "cp-cr-2p")
        return ConfigId::CP_CR_2INJ_SINGLE;
    tenoc_fatal("unknown base configuration '", name, "'");
}

ChipParams
chipParamsFromConfig(const Config &cfg)
{
    static const std::set<std::string> known = {
        "base", "noc.rows", "noc.cols", "noc.mcs", "noc.routing",
        "noc.placement", "noc.halfRouters", "noc.flitBytes",
        "noc.vcsPerClass", "noc.vcDepth", "noc.pipelineDepth",
        "noc.halfPipelineDepth", "noc.mcInjPorts", "noc.mcEjPorts",
        "noc.sliced", "noc.agePriority", "clk.coreMhz", "clk.icntMhz",
        "clk.memMhz",
        "mc.inputQueueCap", "mc.l2HitLatency", "dram.queueCapacity",
        "dram.banks", "dram.rowBytes", "sim.seed", "sim.maxIcntCycles",
        "noc.validate", "noc.validateInterval", "noc.watchdogWindow",
        "noc.maxPacketAge", "noc.watchdogSnapshotPath",
        "fault.linkStallRate", "fault.linkStallDuration",
        "fault.routerFreezeRate", "fault.routerFreezeDuration",
        "fault.creditDropRate", "fault.maxCreditDrops", "fault.seed",
    };
    for (const auto &key : cfg.keys()) {
        if (!known.count(key))
            tenoc_fatal("unknown configuration key '", key, "'");
    }

    ChipParams p = makeConfig(
        configIdFromName(cfg.getString("base", "baseline")),
        cfg.getUint("sim.seed", 1));

    auto &m = p.mesh;
    m.topo.rows = static_cast<unsigned>(
        cfg.getUint("noc.rows", m.topo.rows));
    m.topo.cols = static_cast<unsigned>(
        cfg.getUint("noc.cols", m.topo.cols));
    m.topo.numMcs = static_cast<unsigned>(
        cfg.getUint("noc.mcs", m.topo.numMcs));
    p.mc.numChannels = m.topo.numMcs;
    m.routing = cfg.getString("noc.routing", m.routing);
    if (cfg.has("noc.placement")) {
        const std::string pl = cfg.getString("noc.placement");
        if (pl == "top-bottom")
            m.topo.placement = McPlacement::TOP_BOTTOM;
        else if (pl == "checkerboard")
            m.topo.placement = McPlacement::CHECKERBOARD;
        else
            tenoc_fatal("unknown placement '", pl, "'");
    }
    m.topo.checkerboardRouters =
        cfg.getBool("noc.halfRouters", m.topo.checkerboardRouters);
    m.flitBytes = static_cast<unsigned>(
        cfg.getUint("noc.flitBytes", m.flitBytes));
    m.vcsPerClass = static_cast<unsigned>(
        cfg.getUint("noc.vcsPerClass", m.vcsPerClass));
    m.vcDepth = static_cast<unsigned>(
        cfg.getUint("noc.vcDepth", m.vcDepth));
    m.pipelineDepth = static_cast<unsigned>(
        cfg.getUint("noc.pipelineDepth", m.pipelineDepth));
    m.halfPipelineDepth = static_cast<unsigned>(
        cfg.getUint("noc.halfPipelineDepth", m.halfPipelineDepth));
    m.mcInjPorts = static_cast<unsigned>(
        cfg.getUint("noc.mcInjPorts", m.mcInjPorts));
    m.mcEjPorts = static_cast<unsigned>(
        cfg.getUint("noc.mcEjPorts", m.mcEjPorts));
    if (cfg.has("noc.sliced")) {
        p.netKind = cfg.getBool("noc.sliced", false)
            ? NetKind::DOUBLE : NetKind::MESH;
    }
    m.agePriority = cfg.getBool("noc.agePriority", m.agePriority);

    // Hardening knobs (noc/invariants.hh, noc/faults.hh).
    m.validate = cfg.getBool("noc.validate", m.validate);
    m.validateInterval =
        cfg.getUint("noc.validateInterval", m.validateInterval);
    m.watchdogWindow =
        cfg.getUint("noc.watchdogWindow", m.watchdogWindow);
    m.maxPacketAge = cfg.getUint("noc.maxPacketAge", m.maxPacketAge);
    m.watchdogSnapshotPath = cfg.getString("noc.watchdogSnapshotPath",
                                           m.watchdogSnapshotPath);
    m.faults.linkStallRate =
        cfg.getDouble("fault.linkStallRate", m.faults.linkStallRate);
    m.faults.linkStallDuration = cfg.getUint(
        "fault.linkStallDuration", m.faults.linkStallDuration);
    m.faults.routerFreezeRate = cfg.getDouble(
        "fault.routerFreezeRate", m.faults.routerFreezeRate);
    m.faults.routerFreezeDuration = cfg.getUint(
        "fault.routerFreezeDuration", m.faults.routerFreezeDuration);
    m.faults.creditDropRate =
        cfg.getDouble("fault.creditDropRate", m.faults.creditDropRate);
    m.faults.maxCreditDrops =
        cfg.getUint("fault.maxCreditDrops", m.faults.maxCreditDrops);
    m.faults.seed = cfg.getUint("fault.seed", m.faults.seed);
    for (double rate : {m.faults.linkStallRate,
                        m.faults.routerFreezeRate,
                        m.faults.creditDropRate}) {
        if (rate < 0.0 || rate > 1.0) {
            tenoc_fatal("invalid fault config: rates are per-component"
                        " per-cycle probabilities and must lie in"
                        " [0, 1] (got ", rate, ")");
        }
    }

    p.coreClockMhz = cfg.getDouble("clk.coreMhz", p.coreClockMhz);
    p.icntClockMhz = cfg.getDouble("clk.icntMhz", p.icntClockMhz);
    p.memClockMhz = cfg.getDouble("clk.memMhz", p.memClockMhz);
    if (p.coreClockMhz <= 0.0 || p.icntClockMhz <= 0.0 ||
        p.memClockMhz <= 0.0) {
        tenoc_fatal("invalid clock config: core/icnt/mem clocks must"
                    " all be positive MHz (got core=", p.coreClockMhz,
                    " icnt=", p.icntClockMhz, " mem=", p.memClockMhz,
                    ")");
    }

    p.mc.inputQueueCap = static_cast<unsigned>(
        cfg.getUint("mc.inputQueueCap", p.mc.inputQueueCap));
    p.mc.l2HitLatency = static_cast<unsigned>(
        cfg.getUint("mc.l2HitLatency", p.mc.l2HitLatency));
    p.mc.dram.queueCapacity = static_cast<unsigned>(
        cfg.getUint("dram.queueCapacity", p.mc.dram.queueCapacity));
    if (p.mc.dram.queueCapacity < 1 ||
        p.mc.dram.queueCapacity > DramChannel::MAX_QUEUE) {
        tenoc_fatal("invalid DRAM config: dram.queueCapacity must lie in"
                    " [1, ", DramChannel::MAX_QUEUE, "] (got ",
                    p.mc.dram.queueCapacity, "); FR-FCFS indexes queue"
                    " positions in one 64-bit word per bank");
    }
    p.mc.dram.timing.numBanks = static_cast<unsigned>(
        cfg.getUint("dram.banks", p.mc.dram.timing.numBanks));
    p.mc.dram.timing.rowBytes = static_cast<unsigned>(
        cfg.getUint("dram.rowBytes", p.mc.dram.timing.rowBytes));

    p.maxIcntCycles = cfg.getUint("sim.maxIcntCycles",
                                  p.maxIcntCycles);
    return p;
}

MeshAreaSpec
areaSpecFor(const ChipParams &p)
{
    const MeshNetworkParams &m = p.mesh;
    MeshAreaSpec s;
    s.rows = m.topo.rows;
    s.cols = m.topo.cols;
    s.numMcs = m.topo.numMcs;
    s.buffersPerVc = m.vcDepth;
    s.checkerboard = m.topo.checkerboardRouters;
    s.mcInjPorts = m.mcInjPorts;
    s.mcEjPorts = m.mcEjPorts;

    // Width and VCs of one (sub)network, with the VCs laid out as in
    // noc/vc_map.hh.  The ideal networks are costed as the mesh their
    // parameters describe.
    const bool sliced = p.netKind == NetKind::DOUBLE;
    const MeshNetworkParams net =
        sliced ? DoubleNetwork::sliceParams(m) : m;
    const Topology topo(net.topo);
    s.subnetworks = sliced ? 2 : 1;
    s.channelBytes = net.flitBytes;
    s.vcs = net.protoClasses *
        makeRouting(net.routing, topo)->numRouteClasses() *
        net.vcsPerClass;
    return s;
}

} // namespace tenoc
