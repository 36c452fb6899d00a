/**
 * @file
 * Closed-loop chip benchmark.
 *
 * A workload is a list of points; a point is one (named configuration,
 * Table I kernel) pair on the 6x6 Table II/III machine.  One round
 * constructs and runs every point once, one after another on this
 * thread with mesh.cycleThreads pinned to 1.  Rounds repeat until the
 * time budget is spent (at least kMinRounds), and host times are
 * medians over rounds.  Every point starts from a freshly constructed
 * chip, so the modelled L1/L2 caches and DRAM rows start empty, as in
 * every figure run.
 *
 * Output checks: a point run fails when it hits the cycle cap, ends
 * with packets still in flight, or its simulated digest differs from
 * the point's first run.
 *
 * With --trace 1 the rounds alternate untraced and traced.  Traced
 * rounds attach a PhaseProfile to every mesh slice and read simulated
 * counters from Chip::statGroup() and ChipResult.  Host-time layer
 * metrics come from the traced round of median wall time, so for each
 * point the NoC phases plus chip.rest_s equal the run's wall time.
 * Spans of every traced round are kept in memory and written to
 * --spans at the end.
 *
 * Usage:
 *   chip_bench --workload chip-hh|chip-ll|chip-perfect --seed N
 *              --seconds S --trace 0|1 --scale X [--record FILE]
 *              [--spans FILE] [--git-sha SHA]
 *
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics; everything human-readable goes to
 * stderr.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/chip.hh"
#include "accel/chip_config.hh"
#include "accel/metrics.hh"
#include "gpu/workloads.hh"
#include "telemetry/json.hh"

using namespace tenoc;
using telemetry::JsonValue;

namespace
{

/** Rounds run even when the time budget is already spent. */
constexpr unsigned kMinRounds = 3;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

struct Point
{
    ConfigId config;
    KernelProfile profile;
};

std::vector<Point>
workloadPoints(const std::string &name, double scale)
{
    std::vector<ConfigId> configs;
    TrafficClass cls = TrafficClass::HH;
    bool all = false;
    if (name == "chip-hh") {
        configs = {ConfigId::BASELINE_TB_DOR,
                   ConfigId::THROUGHPUT_EFFECTIVE};
    } else if (name == "chip-ll") {
        configs = {ConfigId::BASELINE_TB_DOR};
        cls = TrafficClass::LL;
    } else if (name == "chip-perfect") {
        configs = {ConfigId::PERFECT};
        all = true;
    } else {
        return {};
    }
    std::vector<Point> out;
    for (ConfigId c : configs) {
        for (const KernelProfile &k : workloadSuite()) {
            if (all || k.expectedClass == cls)
                out.push_back({c, scaleWorkload(k, scale)});
        }
    }
    return out;
}

/** Simulated results of one point; two runs must agree exactly. */
struct Digest
{
    Cycle icntCycles = 0;
    Cycle coreCycles = 0;
    Cycle memCycles = 0;
    std::uint64_t scalarInsts = 0;
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsEjected = 0;
    double ipc = 0.0;

    bool operator==(const Digest &o) const = default;
};

/** Named simulated counters, summed over components (and points). */
using Sums = std::map<std::string, double>;

double
namedValue(const StatGroup &g, const std::string &name)
{
    for (const auto &v : g.values())
        if (v.name == name)
            return v.fn();
    std::fprintf(stderr, "chip_bench: stat %s.%s missing\n",
                 g.name().c_str(), name.c_str());
    std::exit(1);
}

/** The mesh slices of a chip's network (none for an ideal network). */
std::vector<MeshNetwork *>
meshSlices(Network &net)
{
    if (auto *d = dynamic_cast<DoubleNetwork *>(&net))
        return {&d->requestNet(), &d->replyNet()};
    if (auto *m = dynamic_cast<MeshNetwork *>(&net))
        return {m};
    return {};
}

Sums
readCounters(Chip &chip, const ChipResult &r)
{
    Sums c;
    for (MeshNetwork *m : meshSlices(chip.network()))
        for (NodeId n = 0; n < m->topology().numNodes(); ++n)
            c["flit_hops"] += static_cast<double>(
                m->router(n).flitsTraversed());

    const NetStats &ns = chip.network().stats();
    c["net_latency_sum"] = ns.netLatency.sum();
    c["net_latency_n"] = static_cast<double>(ns.netLatency.count());
    c["queue_latency_sum"] = ns.queueLatencyHist.sum();
    c["queue_latency_n"] = static_cast<double>(ns.queueLatencyHist.count());
    c["mc_stall_fraction"] = r.mcStallFractionMean;
    c["mc_injection_rate"] = r.mcInjectionRate;

    for (const StatGroup *g : chip.statGroup().children()) {
        if (g->name().rfind("core", 0) == 0) {
            for (const char *k : {"stall_slots", "mem_insts", "reads_sent",
                                  "writes_sent"})
                c[k] += namedValue(*g, k);
        }
        if (g->name().rfind("mc", 0) != 0)
            continue;
        for (const StatGroup *d : g->children()) {
            for (const char *k : {"row_hits", "row_misses",
                                  "bus_busy_cycles", "pending_cycles",
                                  "served_requests"})
                c[k] += namedValue(*d, k);
            for (const Accumulator *a : d->accumulators()) {
                if (a->name() == "reorder_depth") {
                    c["reorder_depth_sum"] += a->sum();
                    c["reorder_depth_n"] += static_cast<double>(a->count());
                }
            }
        }
    }
    return c;
}

/** NoC phase totals of one traced point run (all slices), ns. */
PhaseProfile
sumProfiles(const std::vector<PhaseProfile> &profiles)
{
    PhaseProfile t;
    for (const PhaseProfile &p : profiles) {
        t.readInputsNs += p.readInputsNs;
        t.injectNs += p.injectNs;
        t.computeNs += p.computeNs;
        t.drainNs += p.drainNs;
        t.bookkeepingNs += p.bookkeepingNs;
    }
    return t;
}

/** The five phases as (span/metric stem, seconds). */
std::vector<std::pair<const char *, double>>
phaseSeconds(const PhaseProfile &p)
{
    return {{"noc.read_inputs", p.readInputsNs * 1e-9},
            {"noc.inject", p.injectNs * 1e-9},
            {"noc.compute", p.computeNs * 1e-9},
            {"noc.drain", p.drainNs * 1e-9},
            {"noc.bookkeeping", p.bookkeepingNs * 1e-9}};
}

double
phaseTotalSeconds(const PhaseProfile &p)
{
    double s = 0;
    for (const auto &[name, sec] : phaseSeconds(p))
        s += sec;
    return s;
}

struct PointRun
{
    double setupS = 0, runS = 0;
    double setupStart = 0, runStart = 0; ///< since benchmark start
    PhaseProfile noc; ///< traced runs only
};

struct Round
{
    bool traced = false;
    std::vector<PointRun> runs;

    double
    wall() const
    {
        double s = 0;
        for (const PointRun &r : runs)
            s += r.runS;
        return s;
    }

    double
    setup() const
    {
        double s = 0;
        for (const PointRun &r : runs)
            s += r.setupS;
        return s;
    }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Peak resident set of this process image so far, MiB.  Read from
 *  VmHWM rather than getrusage, whose ru_maxrss carries over the
 *  launching process's peak across exec. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB -> MiB
    std::fprintf(stderr, "chip_bench: VmHWM not found\n");
    std::exit(1);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0;
    bool trace = false;
    double scale = 0; ///< kernel-length factor
    std::string record, spans, gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "chip_bench: %s\nusage: chip_bench --workload "
                 "chip-hh|chip-ll|chip-perfect --seed N --seconds S "
                 "--trace 0|1 --scale X [--record FILE] "
                 "[--spans FILE] [--git-sha SHA]\n",
                 msg.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--scale")
            a.scale = std::atof(v.c_str());
        else if (k == "--record")
            a.record = v;
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--git-sha")
            a.gitSha = v;
        else
            usage("unknown option " + k);
    }
    if (a.seconds <= 0 || a.scale <= 0)
        usage("--seconds and --scale must be positive");
    return a;
}

/** Metric name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, const char *>>;

JsonValue
toJson(const Metrics &m)
{
    JsonValue out = JsonValue::makeObject();
    for (const auto &[name, vu] : m) {
        JsonValue v = JsonValue::makeObject();
        v.set("value", vu.first);
        v.set("unit", vu.second);
        out.set(name, std::move(v));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::vector<Point> points =
        workloadPoints(args.workload, args.scale);
    if (points.empty())
        usage("unknown workload '" + args.workload + "'");
    const std::size_t np = points.size();

    std::fprintf(stderr,
                 "provenance: git=%s compiler=\"%s\" build=%s nproc=%u "
                 "scale=%g seed=%llu points=%zu\n",
                 args.gitSha.c_str(), PERFBENCH_COMPILER,
                 PERFBENCH_BUILD_TYPE,
                 std::thread::hardware_concurrency(), args.scale,
                 static_cast<unsigned long long>(args.seed), np);

    std::vector<ChipParams> params;
    for (const Point &p : points) {
        ChipParams cp = makeConfig(p.config, args.seed);
        cp.mesh.cycleThreads = 1;
        params.push_back(cp);
    }

    // Per point: the first run's digest, the first traced run's
    // simulated counters, and the first failure seen.
    std::vector<Digest> first(np);
    std::vector<Sums> counters(np);
    std::vector<std::string> failure(np);
    std::uint64_t attempted = 0, failed = 0;

    std::vector<Round> rounds;
    double peak_rss_mb = 0;
    const Clock::time_point t_begin = Clock::now();
    const Clock::time_point deadline =
        t_begin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
    const unsigned min_rounds = args.trace ? 2 * kMinRounds : kMinRounds;
    while (rounds.size() < min_rounds || Clock::now() < deadline) {
        Round round;
        round.traced = args.trace && rounds.size() % 2 == 1;
        for (std::size_t i = 0; i < np; ++i) {
            PointRun pr;
            std::vector<PhaseProfile> profiles; // outlives the chip
            const Clock::time_point t0 = Clock::now();
            Chip chip(params[i], points[i].profile);
            if (round.traced) {
                const auto slices = meshSlices(chip.network());
                profiles.resize(slices.size());
                for (std::size_t s = 0; s < slices.size(); ++s)
                    slices[s]->setPhaseProfile(&profiles[s]);
            }
            const Clock::time_point t1 = Clock::now();
            const ChipResult r = chip.run();
            const Clock::time_point t2 = Clock::now();
            pr.setupS = secondsSince(t0, t1);
            pr.runS = secondsSince(t1, t2);
            pr.setupStart = secondsSince(t_begin, t0);
            pr.runStart = secondsSince(t_begin, t1);
            pr.noc = sumProfiles(profiles);

            const NetStats &ns = chip.network().stats();
            const Digest digest{r.icntCycles, r.coreCycles, r.memCycles,
                                r.scalarInsts, ns.packetsInjected,
                                ns.packetsEjected, r.ipc};

            std::string why;
            if (r.timedOut)
                why = "hit the cycle cap";
            else if (digest.packetsInjected != digest.packetsEjected)
                why = "packets still in flight";
            else if (!rounds.empty() && !(digest == first[i]))
                why = "simulated results differ between repeats";
            else if (phaseTotalSeconds(pr.noc) > pr.runS)
                why = "NoC phases exceed the run's wall time";
            if (rounds.empty())
                first[i] = digest;
            if (round.traced && counters[i].empty())
                counters[i] = readCounters(chip, r);
            ++attempted;
            if (!why.empty()) {
                ++failed;
                if (failure[i].empty())
                    failure[i] = why;
            }
            round.runs.push_back(pr);
        }
        rounds.push_back(std::move(round));
        // The simulator's peak: later rounds reuse the freed chips'
        // memory, while the per-run records above keep growing.
        if (rounds.size() == 1)
            peak_rss_mb = peakRssMb();
    }

    // ---- per-point digest (exact simulated results) ----
    std::vector<SuiteRun> suite;
    std::uint64_t total_insts = 0;
    JsonValue jpoints = JsonValue::makeArray();
    for (std::size_t i = 0; i < np; ++i) {
        const Digest &d = first[i];
        std::fprintf(stderr,
                     "point %-22s %-4s icnt_cycles=%llu "
                     "scalar_insts=%llu packets_ejected=%llu ipc=%.17g"
                     "%s%s\n",
                     configName(points[i].config),
                     points[i].profile.abbr.c_str(),
                     static_cast<unsigned long long>(d.icntCycles),
                     static_cast<unsigned long long>(d.scalarInsts),
                     static_cast<unsigned long long>(d.packetsEjected),
                     d.ipc, failure[i].empty() ? "" : "  FAILED: ",
                     failure[i].c_str());
        SuiteRun s;
        s.abbr = points[i].profile.abbr;
        s.cls = points[i].profile.expectedClass;
        s.result.ipc = d.ipc;
        suite.push_back(s);
        total_insts += d.scalarInsts;

        JsonValue jp = JsonValue::makeObject();
        jp.set("config", configName(points[i].config));
        jp.set("kernel", points[i].profile.abbr);
        jp.set("class", trafficClassName(points[i].profile.expectedClass));
        jp.set("icnt_cycles", static_cast<std::uint64_t>(d.icntCycles));
        jp.set("scalar_insts", d.scalarInsts);
        jp.set("packets_ejected", d.packetsEjected);
        jp.set("ipc", d.ipc);
        jp.set("failure", failure[i]);
        jpoints.push(std::move(jp));
    }

    // ---- end-to-end metrics (untraced rounds) ----
    std::vector<double> walls, setups;
    std::vector<std::vector<double>> point_s(np);
    for (const Round &r : rounds) {
        if (r.traced)
            continue;
        walls.push_back(r.wall());
        setups.push_back(r.setup());
        for (std::size_t i = 0; i < np; ++i)
            point_s[i].push_back(r.runs[i].runS);
    }
    const double wall_s = median(walls);
    double max_point_s = 0;
    for (const auto &v : point_s)
        max_point_s = std::max(max_point_s, median(v));

    Metrics e2e;
    e2e["wall_s"] = {wall_s, "s"};
    e2e["setup_s"] = {median(setups), "s"};
    e2e["sim_insts_per_s"] = {static_cast<double>(total_insts) / wall_s,
                              "inst/s"};
    e2e["max_point_s"] = {max_point_s, "s"};
    e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};
    e2e["sim_ipc_hm"] = {harmonicMeanIpc(suite), "inst/cycle"};
    const double failed_share =
        static_cast<double>(failed) / static_cast<double>(attempted);

    // ---- per-layer metrics (traced round of median wall time) ----
    Metrics layer;
    JsonValue jspans = JsonValue::makeArray();
    if (args.trace) {
        std::vector<const Round *> traced;
        for (const Round &r : rounds)
            if (r.traced)
                traced.push_back(&r);
        std::sort(traced.begin(), traced.end(),
                  [](const Round *a, const Round *b) {
                      return a->wall() < b->wall();
                  });
        const Round &mid = *traced[(traced.size() - 1) / 2];
        const auto ratio = [](double a, double b) {
            return b > 0 ? a / b : 0.0;
        };

        std::vector<PhaseProfile> noc;
        Sums c;
        for (std::size_t i = 0; i < np; ++i) {
            noc.push_back(mid.runs[i].noc);
            for (const auto &[k, v] : counters[i])
                c[k] += v;
            c["icnt_cycles"] += static_cast<double>(first[i].icntCycles);
            c["core_cycles"] += static_cast<double>(first[i].coreCycles);
            c["mem_cycles"] += static_cast<double>(first[i].memCycles);
            c["packets_ejected"] +=
                static_cast<double>(first[i].packetsEjected);
        }
        const PhaseProfile total = sumProfiles(noc);
        for (const auto &[stem, sec] : phaseSeconds(total))
            layer[std::string(stem) + "_s"] = {sec, "s"};
        const double noc_s = phaseTotalSeconds(total);
        const double wall = mid.wall();
        layer["noc.ns_per_icnt_cycle"] = {
            ratio(noc_s * 1e9, c["icnt_cycles"]), "ns/cycle"};
        layer["noc.host_share"] = {ratio(noc_s, wall), "fraction"};
        layer["chip.rest_s"] = {wall - noc_s, "s"};
        std::vector<double> traced_walls;
        for (const Round *r : traced)
            traced_walls.push_back(r->wall());
        layer["trace.overhead_share"] = {median(traced_walls) / wall_s,
                                         "fraction"};

        layer["noc.flit_hops"] = {c["flit_hops"], "count"};
        layer["noc.packets_ejected"] = {c["packets_ejected"], "count"};
        layer["noc.net_latency_mean"] = {
            ratio(c["net_latency_sum"], c["net_latency_n"]), "cycles"};
        layer["noc.queue_latency_mean"] = {
            ratio(c["queue_latency_sum"], c["queue_latency_n"]), "cycles"};
        layer["mc.stall_fraction_mean"] = {c["mc_stall_fraction"] / np,
                                           "fraction"};
        layer["mc.injection_rate"] = {c["mc_injection_rate"] / np,
                                      "flits/cycle"};
        layer["dram.row_hit_rate"] = {
            ratio(c["row_hits"], c["row_hits"] + c["row_misses"]),
            "fraction"};
        layer["dram.efficiency"] = {
            ratio(c["bus_busy_cycles"], c["pending_cycles"]), "fraction"};
        layer["dram.reorder_depth_mean"] = {
            ratio(c["reorder_depth_sum"], c["reorder_depth_n"]),
            "requests"};
        layer["dram.served_requests"] = {c["served_requests"], "count"};
        for (const char *k : {"stall_slots", "mem_insts", "reads_sent",
                              "writes_sent"})
            layer[std::string("gpu.") + k] = {c[k], "count"};
        for (const char *k : {"icnt_cycles", "core_cycles", "mem_cycles"})
            layer[std::string("chip.") + k] = {c[k], "cycles"};

        // Spans: per traced point run, a setup span and a run span
        // whose children are the NoC phase totals (each starts at the
        // run's start; only its duration is measured).
        std::uint64_t id = 0;
        for (std::size_t ri = 0; ri < rounds.size(); ++ri) {
            if (!rounds[ri].traced)
                continue;
            for (std::size_t i = 0; i < np; ++i) {
                const PointRun &pr = rounds[ri].runs[i];
                const std::string point =
                    std::string(configName(points[i].config)) + "/" +
                    points[i].profile.abbr;
                const auto span = [&](const std::string &name,
                                      double start, double dur,
                                      std::uint64_t parent) {
                    JsonValue s = JsonValue::makeObject();
                    s.set("id", ++id);
                    s.set("parent", parent);
                    s.set("name", name);
                    s.set("point", point);
                    s.set("round", static_cast<std::uint64_t>(ri));
                    s.set("start_s", start);
                    s.set("dur_s", dur);
                    jspans.push(std::move(s));
                    return id;
                };
                span("setup", pr.setupStart, pr.setupS, 0);
                const std::uint64_t run =
                    span("run", pr.runStart, pr.runS, 0);
                if (phaseTotalSeconds(pr.noc) == 0)
                    continue; // ideal network: no NoC phases
                for (const auto &[stem, sec] : phaseSeconds(pr.noc))
                    span(stem, pr.runStart, sec, run);
            }
        }
    }

    // ---- human-readable report ----
    std::fprintf(stderr, "%s: %zu rounds (%s), %llu point runs, "
                 "failed_point_share=%g\n",
                 args.workload.c_str(), rounds.size(),
                 args.trace ? "alternating untraced/traced" : "untraced",
                 static_cast<unsigned long long>(attempted), failed_share);
    std::fprintf(stderr, "  round wall_s:");
    for (const Round &r : rounds)
        std::fprintf(stderr, " %.4f%s", r.wall(), r.traced ? "t" : "");
    std::fprintf(stderr, "\n");
    for (const Metrics *table : {&e2e, &layer})
        for (const auto &[name, vu] : *table)
            std::fprintf(stderr, "  %-26s %.6g %s\n", name.c_str(),
                         vu.first, vu.second);

    if (!args.record.empty()) {
        JsonValue rec = JsonValue::makeObject();
        rec.set("schema", "perfbench-record-v1");
        rec.set("workload", args.workload);
        rec.set("seed", args.seed);
        rec.set("scale", args.scale);
        rec.set("trace", args.trace);
        JsonValue prov = JsonValue::makeObject();
        prov.set("git_sha", args.gitSha);
        prov.set("compiler", PERFBENCH_COMPILER);
        prov.set("build_type", PERFBENCH_BUILD_TYPE);
        prov.set("nproc", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()));
        rec.set("provenance", std::move(prov));
        rec.set("rounds", static_cast<std::uint64_t>(rounds.size()));
        rec.set("failed_point_share", failed_share);
        rec.set("points", std::move(jpoints));
        Metrics all = e2e;
        all.insert(layer.begin(), layer.end());
        rec.set("metrics", toJson(all));
        std::ofstream(args.record) << rec.toString() << "\n";
    }
    if (args.trace && !args.spans.empty()) {
        JsonValue doc = JsonValue::makeObject();
        doc.set("schema", "perfbench-spans-v1");
        doc.set("spans", std::move(jspans));
        std::ofstream(args.spans) << doc.toString(0) << "\n";
    }

    JsonValue out = JsonValue::makeObject();
    out.set("correct", failed == 0);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", toJson(args.trace ? layer : e2e));
    std::cout << out.toString(0) << std::endl;
    return 0;
}
