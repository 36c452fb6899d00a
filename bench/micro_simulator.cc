/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: cycles
 * per second for routers, the mesh, the DRAM channel, and a full
 * closed-loop chip.  Useful when optimizing the simulator.
 *
 * Also the telemetry harness: every run times one instrumented
 * closed-loop chip and writes BENCH_telemetry.json (cycles simulated,
 * wall-clock seconds, simulated cycles per second).  The telemetry
 * flags (--stats-json / --stats-csv / --interval-csv / --trace, see
 * docs/telemetry.md) attach sinks to that run; when any is given the
 * google-benchmark suite is skipped so the telemetry files are the
 * run's product.  --profile splits the run's wall time across the SIMT
 * cores, MC/L2, DRAM and the network, prints the split and adds it to
 * BENCH_telemetry.json; it skips the suite too.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "accel/experiments.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "noc/mesh_network.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"

namespace
{

using namespace tenoc;

void
BM_MeshCycleIdle(benchmark::State &state)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    Cycle now = 0;
    for (auto _ : state)
        net.cycle(now++);
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_MeshCycleIdle);

void
BM_MeshCycleLoaded(benchmark::State &state)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    struct Sink : PacketSink
    {
        bool tryReserve(const Packet &) override { return true; }
        void deliver(PacketPtr, Cycle) override {}
    } sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(0.05) && net.canInject(core, 0)) {
                auto pkt = makePacket();
                pkt->src = core;
                pkt->dst = rng.pick(topo.mcNodes());
                pkt->sizeFlits = 1;
                pkt->sizeBytes = 16;
                net.inject(std::move(pkt), now);
            }
        }
        net.cycle(now++);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_MeshCycleLoaded);

void
BM_DramChannelStream(benchmark::State &state)
{
    DramChannelParams p;
    DramChannel ch(p);
    Cycle now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        if (ch.canAccept()) {
            DramRequest req;
            req.localAddr = addr;
            addr += 64;
            ch.push(std::move(req), now);
        }
        ch.cycle(now++);
        ch.popCompleted();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_DramChannelStream);

void
BM_ClosedLoopChip(benchmark::State &state)
{
    // Whole-chip simulation rate (interconnect cycles per second).
    for (auto _ : state) {
        const auto prof = scaleWorkload(findWorkload("MM"), 0.02);
        const auto r =
            runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
        benchmark::DoNotOptimize(r.ipc);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(r.icntCycles));
    }
}
BENCHMARK(BM_ClosedLoopChip)->Unit(benchmark::kMillisecond);

/**
 * Pulls `--name value` / `--name=value` out of argv (benchmark's
 * Initialize rejects unknown arguments, so ours must go first).
 * @return true and sets `value` if the flag was present.
 */
bool
extractFlag(int &argc, char **argv, const char *name,
            std::string &value)
{
    const std::string eq = std::string("--") + name + "=";
    const std::string bare = std::string("--") + name;
    bool found = false;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind(eq, 0) == 0) {
            value = arg.substr(eq.size());
            found = true;
            continue;
        }
        if (arg == bare && i + 1 < argc) {
            value = argv[++i];
            found = true;
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
    return found;
}

/** Parses --checkpoint-at strictly: all digits and > 0, else fatal. */
Cycle
parseCheckpointCycle(const std::string &value)
{
    const char *end = value.data() + value.size();
    Cycle cycle = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), end, cycle);
    if (ec != std::errc() || ptr != end || cycle == 0)
        tenoc_fatal("--checkpoint-at wants a positive icnt cycle count, "
                    "got '", value, "'");
    return cycle;
}

/** Times one instrumented chip run and writes BENCH_telemetry.json.
 *  @return false if the run hit its cycle cap (likely deadlock; the
 *  chip printed a diagnostic snapshot). */
bool
runTelemetryHarness(telemetry::TelemetryConfig cfg, RunOptions opts,
                    bool profile)
{
    const char *workload = "MM";
    const double scale = envScale(0.05);

    // Canonical hash of this run's effective configuration, echoed
    // into the stats-JSON header and interval-CSV metadata so sweep
    // tooling can content-address the outputs (docs/telemetry.md).
    Config id_cfg;
    id_cfg.set("base", "baseline");
    id_cfg.set("workload", workload);
    id_cfg.set("workload.scale", scale);
    cfg.configHash = id_cfg.canonicalHashHex();

    telemetry::TelemetryHub hub(cfg);
    const auto prof = scaleWorkload(findWorkload(workload), scale);

    ChipLayerProfile layers;
    if (profile)
        opts.layerProfile = &layers;
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof, &hub, opts);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    const double rate = wall > 0.0
        ? static_cast<double>(result.icntCycles) / wall : 0.0;

    telemetry::JsonValue doc =
        telemetry::JsonValue::makeObject();
    doc.set("workload", telemetry::JsonValue(workload));
    doc.set("scale", telemetry::JsonValue(scale));
    doc.set("icnt_cycles", telemetry::JsonValue(
        static_cast<double>(result.icntCycles)));
    doc.set("wall_seconds", telemetry::JsonValue(wall));
    doc.set("sim_cycles_per_second", telemetry::JsonValue(rate));
    doc.set("ipc", telemetry::JsonValue(result.ipc));
    std::fprintf(stderr,
                 "[micro_simulator] %s scale %.2f: %llu icnt cycles "
                 "in %.2fs (%.0f cycles/s)\n",
                 workload, scale,
                 static_cast<unsigned long long>(result.icntCycles),
                 wall, rate);
    if (profile) {
        const std::pair<const char *, std::uint64_t> split[] = {
            {"cores_s", layers.coresNs},
            {"mc_l2_s", layers.mcL2Ns},
            {"dram_s", layers.dramNs},
            {"network_s", layers.networkNs},
        };
        telemetry::JsonValue lp = telemetry::JsonValue::makeObject();
        double rest = wall;
        std::fprintf(stderr, "[micro_simulator] layer split:");
        for (const auto &[name, ns] : split) {
            const double sec = static_cast<double>(ns) * 1e-9;
            rest -= sec;
            lp.set(name, telemetry::JsonValue(sec));
            std::fprintf(stderr, " %s %.4f", name, sec);
        }
        lp.set("rest_s", telemetry::JsonValue(rest));
        std::fprintf(stderr, " rest_s %.4f\n", rest);
        doc.set("layer_profile", std::move(lp));
    }
    std::ofstream os("BENCH_telemetry.json");
    doc.write(os);
    os << "\n";

    if (result.timedOut) {
        std::fprintf(stderr,
                     "[micro_simulator] ERROR: run hit the icnt cycle "
                     "cap before completing — see the diagnostic "
                     "snapshot above\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Telemetry flags must come out of argv before google-benchmark
    // sees them (it rejects unknown arguments).
    const auto cfg = telemetry::parseTelemetryFlags(argc, argv);

    // Checkpoint/restore flags (docs/robustness.md): --checkpoint-at
    // N --checkpoint-out FILE snapshots the harness run mid-flight;
    // --restore FILE resumes from a snapshot.
    RunOptions opts;
    std::string value;
    bool ckpt_flags = false;
    if (extractFlag(argc, argv, "checkpoint-at", value)) {
        opts.checkpointAt = parseCheckpointCycle(value);
        ckpt_flags = true;
    }
    if (extractFlag(argc, argv, "checkpoint-out", value)) {
        opts.checkpointOut = value;
        ckpt_flags = true;
    }
    if (extractFlag(argc, argv, "restore", value)) {
        opts.restoreFrom = value;
        ckpt_flags = true;
    }

    bool profile = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--profile") {
            profile = true;
            std::copy(argv + i + 1, argv + argc + 1, argv + i);
            --argc;
            break;
        }
    }

    if (!runTelemetryHarness(cfg, opts, profile))
        return 2; // cycle-cap timeout: fail fast instead of reporting
    if (cfg.any() || ckpt_flags || profile)
        return 0; // harness-only run; skip the benchmark suite

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
