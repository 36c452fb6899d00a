/**
 * @file
 * Open-loop harness implementation.
 */

#include "noc/openloop.hh"

#include <algorithm>
#include <memory>

#include "common/log.hh"
#include "noc/traffic.hh"
#include "telemetry/telemetry.hh"

namespace tenoc
{

OpenLoopResult
runOpenLoop(const OpenLoopParams &params)
{
    MeshNetworkParams net_params = params.net;
    net_params.seed = params.seed;
    // A genuine deadlock (routing bug, injected fault) would otherwise
    // sit silently until the bounded loop runs out; cap the watchdog
    // window at the drain budget so it fires — with a diagnostic
    // snapshot — before the run just peters out.
    if (net_params.watchdogWindow != 0 && params.drainCycles != 0) {
        net_params.watchdogWindow =
            std::min(net_params.watchdogWindow, params.drainCycles);
    }
    // The paper's open-loop runs use a single network with two logical
    // (request/reply) networks; keep whatever protoClasses the caller
    // configured.
    MeshNetwork net(net_params);
    const Topology &topo = net.topology();

    if (params.telemetry) {
        net.attachTelemetry(*params.telemetry);
        // Warmup cycles land in a dedicated leading interval row so no
        // measurement window mixes warmup and measured traffic.
        if (auto *sampler = params.telemetry->sampler())
            sampler->alignTo(params.warmupCycles);
    }

    // One independent stream per source: a node's Bernoulli draws and
    // destination picks depend only on (seed, node), never on how many
    // draws its neighbors happened to make.
    const std::uint64_t traffic_seed = params.seed ^ 0xfeedfaceULL;
    DestinationChooser dests(topo.mcNodes(), params.hotspotFraction);

    Accumulator req_lat("req_latency");
    Accumulator rep_lat("rep_latency");
    OpenLoopMeasure measure;

    std::vector<std::unique_ptr<Rng>> source_rngs;
    std::vector<std::unique_ptr<OpenLoopSource>> sources;
    std::vector<std::unique_ptr<McEchoSink>> mcs;
    std::vector<std::unique_ptr<CollectorSink>> cores;

    for (NodeId n : topo.computeNodes()) {
        source_rngs.push_back(std::make_unique<Rng>(
            deriveStreamSeed(traffic_seed, n)));
        sources.push_back(std::make_unique<OpenLoopSource>(
            n, params.injectionRate, params.requestFlits, dests, net,
            *source_rngs.back()));
        cores.push_back(
            std::make_unique<CollectorSink>(rep_lat, &measure));
        net.setSink(n, cores.back().get());
    }
    for (NodeId n : topo.mcNodes()) {
        mcs.push_back(std::make_unique<McEchoSink>(
            n, params.replyFlits, net, req_lat, &measure));
        net.setSink(n, mcs.back().get());
    }

    const Cycle measure_end = params.warmupCycles + params.measureCycles;
    const Cycle hard_end = measure_end + params.drainCycles;
    bool saturated = false;

    Cycle now = 0;
    for (; now < hard_end; ++now) {
        const bool measuring =
            now >= params.warmupCycles && now < measure_end;
        // Generation stops at the end of the measurement window so the
        // network can drain the tagged packets.
        if (now < measure_end) {
            for (auto &s : sources)
                s->cycle(now, measuring);
        }
        for (auto &m : mcs)
            m->cycle(now);
        net.cycle(now);
        if (params.telemetry)
            params.telemetry->tick(now);

        if (now == measure_end) {
            for (auto &s : sources) {
                if (s->queueDepth() > params.saturationQueue)
                    saturated = true;
            }
        }
    }
    if (params.telemetry)
        params.telemetry->finish(now);

    // If tagged traffic never fully drained we are far past saturation.
    for (auto &s : sources)
        if (s->queueDepth() > 0)
            saturated = true;
    for (auto &m : mcs)
        if (!m->idle())
            saturated = true;

    OpenLoopResult r;
    r.offeredLoad = params.injectionRate *
        static_cast<double>(params.requestFlits);
    // Accepted load counts only measurement-tagged deliveries — the
    // same population the latency accumulators sample — so warmup
    // stragglers draining after the window opens no longer inflate it.
    r.acceptedLoad = static_cast<double>(measure.taggedFlitsDelivered) /
        (static_cast<double>(params.measureCycles) * topo.numNodes());
    r.avgRequestLatency = req_lat.mean();
    r.avgReplyLatency = rep_lat.mean();
    const auto n_req = static_cast<double>(req_lat.count());
    const auto n_rep = static_cast<double>(rep_lat.count());
    r.avgLatency = (n_req + n_rep) > 0.0
        ? (req_lat.sum() + rep_lat.sum()) / (n_req + n_rep)
        : 0.0;
    r.p95Latency = net.stats().totalLatencyHist.percentile(0.95);
    if (r.avgLatency > params.saturationLatency)
        saturated = true;
    r.saturated = saturated;
    return r;
}

std::vector<OpenLoopResult>
sweepOpenLoop(OpenLoopParams params, double start, double step,
              double max_rate)
{
    tenoc_assert(step > 0.0, "sweep step must be positive");
    std::vector<OpenLoopResult> out;
    for (double rate = start; rate <= max_rate + 1e-12; rate += step) {
        params.injectionRate = rate;
        out.push_back(runOpenLoop(params));
        if (out.back().saturated)
            break;
    }
    return out;
}

} // namespace tenoc
