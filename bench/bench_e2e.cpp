/**
 * @file
 * End-to-end performance record for the scenarios the docs quote and
 * perfbench does not run:
 *
 *  - three_tier: the three-tier replay (examples/three_tier_fleet.hh)
 *    with exact governor timers, a unit-granularity wheel and a 1 ms
 *    wheel;
 *  - warehouse: 100k servers x 4 cores hit by synchronized task
 *    waves, so every core's idle-demotion ladder re-arms at once;
 *    exact timers and a 100 us wheel;
 *  - pdes: an 8-pod PodCluster on the sequential kernel and on 1/2/4
 *    workers of the windowed parallel kernel;
 *  - flow_churn: abort+start churn over a standing population of
 *    rack-local flows (10k, 100k) under the exact and fluid solvers;
 *  - replicas: a farm sweep grid on the experiment engine at jobs = 1
 *    and jobs = host_cpus.
 *
 * Each scenario runs in its own forked child, so wait4() reports that
 * child's peak RSS. A scenario records wall seconds (the timed run,
 * setup excluded), events, events/s, peak RSS, host_cpus, the git
 * revision and a digest (CampaignJournal::hashConfig) of its
 * deterministic output. Timings are recorded, not gated. The binary
 * exits nonzero when an identity gate fails:
 *
 *  - the unit-granularity wheel replay digest equals the exact one;
 *  - the 1 ms wheel replay completes every request;
 *  - the warehouse completes the same work with and without the wheel;
 *  - the pdes digests at 1/2/4 workers equal the sequential one;
 *  - the replica grid digest at jobs = N equals the jobs = 1 one.
 *
 * Usage: bench_e2e [--quick] [--json=FILE]
 *
 * --quick shrinks every scenario to a size a sanitizer build runs in
 * seconds (ctest runs it); --json=FILE writes the record, e.g.
 * BENCH_e2e.json at the repository root.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hh"
#include "dc/pod_cluster.hh"
#include "exp/aggregate.hh"
#include "exp/experiment.hh"
#include "exp/journal.hh"
#include "exp/thread_pool.hh"
#include "network/net_model.hh"
#include "network/routing.hh"
#include "sim/logging.hh"
#include "three_tier_fleet.hh"

using namespace holdcsim;

namespace {

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One scenario's record. The child fills everything but peakRssMb. */
struct Outcome {
    double wallS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    /** Scenario-specific figures (work done, solver counters, ...). */
    std::vector<std::pair<std::string, double>> fields;
    double peakRssMb = 0.0;
    bool ok = false;

    double
    field(const std::string &name) const
    {
        for (const auto &[key, value] : fields)
            if (key == name)
                return value;
        return -1.0;
    }
};

/** Appends "name value" lines; the digest hashes the finished text. */
struct DigestText {
    std::ostringstream os;

    DigestText &
    add(const char *name, double v)
    {
        os << name << ' ' << formatMetricValue(v) << '\n';
        return *this;
    }
    std::uint64_t
    hash() const
    {
        return CampaignJournal::hashConfig(os.str());
    }
};

/**
 * Run @p scenario in a forked child. The child writes its Outcome to a
 * pipe; the parent reads it and takes the peak RSS from wait4().
 */
Outcome
runIsolated(const std::function<Outcome()> &scenario)
{
    int fds[2];
    if (pipe(fds) != 0)
        fatal("bench_e2e: pipe() failed");
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        fatal("bench_e2e: fork() failed");
    if (pid == 0) {
        close(fds[0]);
        int rc = 0;
        try {
            Outcome o = scenario();
            FILE *out = fdopen(fds[1], "w");
            if (!out)
                fatal("bench_e2e: fdopen() failed");
            std::fprintf(out, "%.17g %llu %llu\n", o.wallS,
                         (unsigned long long)o.events,
                         (unsigned long long)o.digest);
            for (const auto &[key, value] : o.fields)
                std::fprintf(out, "%s %.17g\n", key.c_str(), value);
            std::fclose(out);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "bench_e2e: %s\n", e.what());
            rc = 1;
        }
        std::exit(rc);
    }
    close(fds[1]);
    FILE *in = fdopen(fds[0], "r");
    if (!in)
        fatal("bench_e2e: fdopen() failed");
    Outcome o;
    unsigned long long events = 0, digest = 0;
    bool parsed = std::fscanf(in, "%lf %llu %llu", &o.wallS, &events,
                              &digest) == 3;
    char key[64] = {};
    double value = 0.0;
    while (std::fscanf(in, "%63s %lf", key, &value) == 2)
        o.fields.emplace_back(key, value);
    std::fclose(in);
    int status = 0;
    struct rusage ru = {};
    bool reaped = wait4(pid, &status, 0, &ru) == pid;
    o.events = events;
    o.digest = digest;
    o.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    o.ok = parsed && reaped && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
    return o;
}

// ------------------------------------------------------------ scenarios

Outcome
threeTier(std::size_t n_requests, Tick granularity)
{
    Simulator sim;
    sim.setTimerGranularity(granularity);
    const ThreeTierRun run = runThreeTier(sim, n_requests);
    // Everything the workload observes; the event count is left out
    // because the wheel legitimately replaces governor events with
    // shared ticks.
    DigestText d;
    d.add("jobs", run.jobs)
        .add("transfers", run.transfers)
        .add("end_tick", sim.curTick())
        .add("lat_mean", run.latMean)
        .add("lat_p50", run.latP50)
        .add("lat_p95", run.latP95)
        .add("lat_p99", run.latP99);
    for (int t = 0; t < 3; ++t)
        d.add("tier_tasks", run.tierTasks[t])
            .add("tier_utilization", run.tierUtilization[t]);
    Outcome o;
    o.wallS = run.wallSeconds;
    o.events = sim.eventsProcessed();
    o.digest = d.hash();
    o.fields = {{"jobs", run.jobs},
                {"wheel_granularity_us", toSeconds(granularity) * 1e6}};
    if (const TimerWheel *wheel = sim.timerWheel())
        o.fields.emplace_back("wheel_tick_events",
                              wheel->stats().tickEvents);
    return o;
}

/**
 * @p n_servers flat servers (4 cores, no fabric, no scheduler) hit by
 * two synchronized waves of one 50 us task per server: the worst case
 * for per-core timer events and the best case for the wheel, which
 * folds each aligned boundary into one tick.
 */
Outcome
warehouse(std::size_t n_servers, Tick granularity)
{
    constexpr unsigned waves = 2;
    Simulator sim;
    sim.setTimerGranularity(granularity);
    ServerPowerProfile profile;
    std::vector<std::unique_ptr<Server>> servers;
    servers.reserve(n_servers);
    std::uint64_t completions = 0;
    for (std::size_t i = 0; i < n_servers; ++i) {
        ServerConfig cfg;
        cfg.id = static_cast<unsigned>(i);
        cfg.nCores = 4;
        servers.push_back(std::make_unique<Server>(sim, cfg, profile));
        servers.back()->setTaskDoneCallback(
            [&completions](Server &, const TaskRef &) { ++completions; });
    }
    unsigned wave = 0;
    JobId next_job = 0;
    EventFunctionWrapper injector(
        [&] {
            for (auto &s : servers) {
                TaskRef t;
                t.job = next_job++;
                t.serviceTime = 50 * usec;
                s->submit(t);
            }
            if (++wave < waves)
                sim.schedule(injector, sim.curTick() + 2 * msec);
        },
        "warehouse.wave");
    sim.schedule(injector, 1 * msec);

    double t0 = now_s();
    sim.run();
    Outcome o;
    o.wallS = now_s() - t0;
    o.events = sim.eventsProcessed();
    Joules energy = 0.0;
    for (auto &s : servers) {
        s->finishStats();
        energy += s->energy().total();
    }
    o.digest = DigestText()
                   .add("completions", completions)
                   .add("end_tick", sim.curTick())
                   .add("energy_j", energy)
                   .hash();
    o.fields = {{"servers", n_servers},
                {"completions", completions},
                {"expected_completions", n_servers * waves},
                {"wheel_granularity_us", toSeconds(granularity) * 1e6}};
    if (const TimerWheel *wheel = sim.timerWheel()) {
        o.fields.emplace_back("wheel_tick_events",
                              wheel->stats().tickEvents);
        o.fields.emplace_back("wheel_max_batch", wheel->stats().maxBatch);
    }
    return o;
}

Outcome
podCluster(bool quick, unsigned workers)
{
    PodClusterConfig cfg;
    cfg.pods = 8;
    cfg.requestsPerPod = quick ? 600 : 6'000;
    cfg.arrivalRate = 1'500.0;
    cfg.forwardProbability = 0.3;
    // A metro-scale 1 ms inter-pod latency: wide windows amortize the
    // barrier. The tests cover the tight 20 us default.
    cfg.interPodLatency = 1 * msec;
    cfg.statsHorizon = quick ? 1 * sec : 6 * sec;
    cfg.seed = 7;

    PodCluster cluster(cfg, workers);
    double t0 = now_s();
    cluster.run();
    Outcome o;
    o.wallS = now_s() - t0;
    o.events = cluster.eventsTotal();
    std::ostringstream dump;
    cluster.dumpStats(dump);
    o.digest = CampaignJournal::hashConfig(dump.str());
    o.fields = {{"pods", cfg.pods}, {"workers", workers}};
    if (workers >= 2) {
        const auto &st = cluster.pdesStats();
        o.fields.emplace_back("windows", st.windows);
        o.fields.emplace_back("messages", st.messages);
        o.fields.emplace_back("blocked_fraction", st.blockedFraction());
    }
    return o;
}

/**
 * Bulk-load @p n_flows rack-local flows on fatTree(8) (flow j joins
 * two servers under one edge switch, so the fluid solver's dirty
 * component is one rack), then time abort+start updates. The digest
 * covers every flow's final rate.
 */
Outcome
flowChurn(std::size_t n_flows, NetModelKind kind)
{
    constexpr unsigned k = 8;
    const std::size_t updates = n_flows >= 100'000 ? 16 : 64;
    Topology topo = Topology::fatTree(k, 1e9, 5 * usec);
    StaticRouting routing(topo);
    const std::size_t per_rack = k / 2;
    const std::size_t n_srv = topo.numServers();
    std::vector<Route> routes;
    routes.reserve(n_flows);
    for (std::size_t j = 0; j < n_flows; ++j) {
        std::size_t src = j % n_srv;
        std::size_t rack_base = src - src % per_rack;
        std::size_t offset = 1 + (j / n_srv) % (per_rack - 1);
        std::size_t dst = rack_base + (src - rack_base + offset) % per_rack;
        routes.push_back(routing.route(topo.serverNode(src),
                                       topo.serverNode(dst), j));
    }

    Simulator sim;
    NetModelConfig cfg;
    cfg.kind = kind;
    NetModel model(sim, topo, cfg);
    constexpr Bytes huge = 1'000'000'000'000'000; // completions far out
    std::vector<FlowId> ids(n_flows);
    double t_load = now_s();
    model.beginBulkLoad();
    for (std::size_t i = 0; i < n_flows; ++i)
        ids[i] = model.startFlow(routes[i], huge, [] {});
    sim.runUntil(0);
    model.endBulkLoad();
    const double load_s = now_s() - t_load;

    const NetSolverStats before = model.solverStats();
    const std::uint64_t events_before = sim.eventsProcessed();
    double t0 = now_s();
    for (std::size_t op = 0; op < updates; ++op) {
        std::size_t i = op % n_flows;
        model.abortFlow(ids[i]);
        ids[i] = model.startFlow(routes[i], huge, [] {});
        sim.runUntil(sim.curTick());
    }
    Outcome o;
    o.wallS = now_s() - t0;
    o.events = sim.eventsProcessed() - events_before;
    DigestText d;
    for (FlowId id : ids)
        d.add("rate", model.flowRate(id));
    o.digest = d.hash();
    const NetSolverStats &after = model.solverStats();
    const std::uint64_t resolves = after.resolves - before.resolves;
    o.fields = {{"flows", n_flows},
                {"updates", updates},
                {"us_per_update", o.wallS * 1e6 / updates},
                {"load_s", load_s},
                {"mean_dirty_flows",
                 resolves ? double(after.resolvedFlows -
                                   before.resolvedFlows) /
                                resolves
                          : 0.0}};
    return o;
}

/** A (tau x replica) grid of 50-server farms; the digest covers every
 *  replica's metrics in grid order, so jobs = 1 and jobs = N must
 *  agree bit for bit. */
Outcome
replicas(bool quick, unsigned jobs)
{
    const Tick taus[] = {250 * msec, 1000 * msec};
    const std::size_t n_replicas = quick ? 2 : 8;
    const Tick duration = quick ? 2 * sec : 20 * sec;
    auto cell = [&](std::size_t point, std::size_t, std::uint64_t seed) {
        bench::FarmParams p;
        p.duration = duration;
        p.tau = taus[point];
        p.seed = seed;
        bench::FarmResult r = bench::runFarm(p);
        return MetricRow{{"energy_j", r.energy},
                         {"mean_latency_s", r.meanLatencySec},
                         {"p95_s", r.p95Sec},
                         {"p99_s", r.p99Sec},
                         {"jobs", static_cast<double>(r.jobs)},
                         {"sim_seconds", r.simSeconds},
                         {"events", static_cast<double>(r.events)}};
    };
    double t0 = now_s();
    auto records =
        ExperimentEngine(jobs).run(std::size(taus), n_replicas, 1, cell);
    Outcome o;
    o.wallS = now_s() - t0;
    DigestText d;
    for (const ReplicaRecord &rec : records) {
        if (rec.failed)
            fatal("replica ", rec.point, "/", rec.replica, ": ",
                  rec.error);
        for (const auto &[name, value] : rec.metrics) {
            d.add(name.c_str(), value);
            if (name == "events")
                o.events += static_cast<std::uint64_t>(value);
        }
    }
    o.digest = d.hash();
    o.fields = {{"jobs", jobs}, {"cells", records.size()}};
    return o;
}

/** HEAD of the source checkout, or "unavailable" (no git, no repo). */
std::string
gitRev()
{
    const std::string src = HOLDCSIM_SOURCE_DIR;
    FILE *p = popen(("git -C '" + src +
                     "' rev-parse --show-toplevel HEAD 2>/dev/null")
                        .c_str(),
                    "r");
    if (!p)
        return "unavailable";
    char top[4096] = {}, rev[64] = {};
    bool ok = std::fscanf(p, "%4095s %63s", top, rev) == 2;
    ok = pclose(p) == 0 && ok;
    char *real_top = realpath(top, nullptr);
    char *real_src = realpath(src.c_str(), nullptr);
    ok = ok && real_top && real_src &&
         std::string(real_top) == real_src;
    std::free(real_top);
    std::free(real_src);
    return ok ? rev : "unavailable";
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_out;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_out = arg.substr(7);
        } else {
            std::fprintf(stderr,
                         "usage: bench_e2e [--quick] [--json=FILE]\n");
            return 2;
        }
    }
    setQuiet(true);

    const unsigned host_cpus = ThreadPool::defaultWorkers();
    const std::size_t requests = quick ? 2'000 : 20'000;
    const std::size_t fleet = quick ? 4'096 : 100'000;
    const std::size_t churn_small = quick ? 1'000 : 10'000;
    const std::size_t churn_large = quick ? 10'000 : 100'000;

    std::vector<std::pair<std::string, std::function<Outcome()>>> plan = {
        {"three_tier_exact", [&] { return threeTier(requests, 0); }},
        {"three_tier_wheel_1tick", [&] { return threeTier(requests, 1); }},
        {"three_tier_wheel_1ms",
         [&] { return threeTier(requests, 1 * msec); }},
        {"warehouse_exact", [&] { return warehouse(fleet, 0); }},
        {"warehouse_wheel_100us",
         [&] { return warehouse(fleet, 100 * usec); }},
        {"pdes_seq", [&] { return podCluster(quick, 0); }},
    };
    for (unsigned w : {1u, 2u, 4u})
        plan.emplace_back("pdes_" + std::to_string(w) + "w",
                          [=] { return podCluster(quick, w); });
    for (std::size_t n : {churn_small, churn_large}) {
        const std::string tag =
            "flow_churn_" + std::to_string(n / 1000) + "k_";
        plan.emplace_back(tag + "exact",
                          [=] { return flowChurn(n, NetModelKind::exact); });
        plan.emplace_back(tag + "fluid",
                          [=] { return flowChurn(n, NetModelKind::fluid); });
    }
    plan.emplace_back("replicas_jobs1", [&] { return replicas(quick, 1); });
    plan.emplace_back("replicas_jobsN",
                      [&] { return replicas(quick, host_cpus); });

    std::vector<std::pair<std::string, Outcome>> results;
    std::printf("%-24s %9s %11s %12s %8s  %s\n", "scenario", "wall_s",
                "events", "events/s", "rss_mb", "digest");
    bool ok = true;
    for (const auto &[name, scenario] : plan) {
        Outcome o = runIsolated(scenario);
        ok &= o.ok;
        std::printf("%-24s %9.3f %11llu %12.0f %8.1f  %s%s\n",
                    name.c_str(), o.wallS, (unsigned long long)o.events,
                    o.wallS > 0.0 ? o.events / o.wallS : 0.0, o.peakRssMb,
                    hex(o.digest).c_str(), o.ok ? "" : "  FAILED");
        results.emplace_back(name, std::move(o));
    }

    auto get = [&](const std::string &name) -> const Outcome & {
        for (const auto &[n, o] : results)
            if (n == name)
                return o;
        fatal("no scenario ", name);
    };
    auto gate = [&](const char *what, bool pass) {
        std::printf("gate %-56s %s\n", what, pass ? "ok" : "FAILED");
        ok &= pass;
    };
    const Outcome &tt = get("three_tier_exact");
    gate("three_tier: unit wheel digest == exact digest",
         get("three_tier_wheel_1tick").digest == tt.digest);
    gate("three_tier: 1 ms wheel completes every request",
         get("three_tier_wheel_1ms").field("jobs") == tt.field("jobs") &&
             tt.field("jobs") == static_cast<double>(requests));
    const Outcome &wh = get("warehouse_exact");
    gate("warehouse: wheel completes the same work as exact",
         get("warehouse_wheel_100us").field("completions") ==
                 wh.field("completions") &&
             wh.field("completions") == wh.field("expected_completions"));
    gate("pdes: 1/2/4-worker digests == sequential digest",
         get("pdes_1w").digest == get("pdes_seq").digest &&
             get("pdes_2w").digest == get("pdes_seq").digest &&
             get("pdes_4w").digest == get("pdes_seq").digest);
    gate("replicas: jobs=N digest == jobs=1 digest",
         get("replicas_jobsN").digest == get("replicas_jobs1").digest);

    if (!json_out.empty()) {
        std::ofstream os(json_out);
        if (!os)
            fatal("cannot open '", json_out, "' for writing");
        const std::string rev = gitRev();
        os << "{\n  \"quick\": " << (quick ? "true" : "false")
           << ",\n  \"gates_ok\": " << (ok ? "true" : "false")
           << ",\n  \"scenarios\": {";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &[name, o] = results[i];
            os << (i ? "," : "") << "\n    \"" << name << "\": {"
               << "\"wall_s\": " << o.wallS << ", \"events\": " << o.events
               << ", \"events_per_s\": "
               << (o.wallS > 0.0 ? o.events / o.wallS : 0.0)
               << ", \"peak_rss_mb\": " << o.peakRssMb
               << ", \"host_cpus\": " << host_cpus << ", \"git_rev\": \""
               << rev << "\", \"digest\": \"" << hex(o.digest) << "\"";
            for (const auto &[key, value] : o.fields)
                os << ", \"" << key << "\": " << value;
            os << "}";
        }
        os << "\n  }\n}\n";
    }
    return ok ? 0 : 1;
}
