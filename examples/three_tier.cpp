/**
 * @file
 * A three-tier web service on typed servers (paper section III-C:
 * "servers in the simulated environment can be configured to perform
 * different tasks ... a web request can be modeled as two sequential
 * tasks, one serviced by the application server and another
 * corresponding to queries sent to database servers").
 *
 * The fleet is partitioned into web, application and database tiers
 * via task-type restrictions; each request is a chain
 * web -> app -> db whose inter-tier results cross a star fabric.
 * The example prints per-tier utilization, the full stats dump and
 * the end-to-end latency breakdown.
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "dc/datacenter.hh"
#include "sim/logging.hh"
#include "telemetry/profiler.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

constexpr int webTier = 1;
constexpr int appTier = 2;
constexpr int dbTier = 3;

} // namespace

int
main(int argc, char **argv)
{
    // --profile[=FILE] attaches a kernel profiler and dumps its JSON
    // summary to FILE (stdout when omitted); used by
    // bench/run_kernel_profile.sh. --queue=heap|calendar selects the
    // event-queue backend so the script can record before/after
    // events-per-host-second. --wheel-granularity-us=N batches the
    // governor timers onto the Simulator's timer wheel in N-us
    // buckets (0, the default, fires each timer exactly).
    bool profile_on = false;
    std::string profile_out;
    auto backend = EventQueue::Backend::calendar;
    Tick wheel_granularity = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--profile") {
            profile_on = true;
        } else if (arg.rfind("--profile=", 0) == 0) {
            profile_on = true;
            profile_out = arg.substr(10);
        } else if (arg == "--queue=heap") {
            backend = EventQueue::Backend::binaryHeap;
        } else if (arg == "--queue=calendar") {
            backend = EventQueue::Backend::calendar;
        } else if (arg.rfind("--wheel-granularity-us=", 0) == 0) {
            Config flag;
            flag.set("wheel_granularity_us", arg.substr(23));
            wheel_granularity =
                flag.getDuration("wheel_granularity_us", usec);
        } else {
            std::fprintf(stderr,
                         "usage: three_tier [--profile[=FILE]] "
                         "[--queue=heap|calendar] "
                         "[--wheel-granularity-us=N (0 = exact)]\n");
            return 2;
        }
    }

    // 12 servers behind one switch; tiers are assigned by task type
    // (DataCenter builds untyped servers, so build this fleet by
    // hand to show the lower-level API).
    Simulator sim(backend);
    sim.setTimerGranularity(wheel_granularity);
    ServerPowerProfile profile;
    Topology topo = Topology::star(12, 1e9, 5 * usec);
    Network net(sim, std::move(topo),
                SwitchPowerProfile::cisco2960_24());

    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    for (unsigned i = 0; i < 12; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 4;
        // 4 web, 4 app, 4 db servers.
        cfg.taskTypes = {i < 4 ? webTier : i < 8 ? appTier : dbTier};
        auto server = std::make_unique<Server>(sim, cfg, profile);
        servers.push_back(server.get());
        owned.push_back(std::move(server));
    }

    GlobalScheduler sched(sim, servers,
                          std::make_unique<LeastLoadedPolicy>(), {},
                          &net);

    // Request = 1 ms web + 4 ms app + 8 ms db, shipping 64 kB
    // between tiers.
    auto web = std::make_shared<ExponentialService>(1 * msec,
                                                    Rng(17, "web"));
    auto app = std::make_shared<ExponentialService>(4 * msec,
                                                    Rng(17, "app"));
    auto db = std::make_shared<ExponentialService>(8 * msec,
                                                   Rng(17, "db"));
    ChainJobGenerator requests({web, app, db},
                               {webTier, appTier, dbTier}, 64 * 1024);

    PoissonArrival arrivals(600.0, Rng(17, "arrivals"));
    const std::size_t n_requests = 20'000;
    std::size_t injected = 0;
    EventFunctionWrapper inject(
        [&] {
            sched.submitJob(requests.makeJob(sim.curTick()));
            if (++injected < n_requests)
                sim.schedule(inject, arrivals.nextArrival());
        },
        "inject");
    sim.schedule(inject, arrivals.nextArrival());

    KernelProfiler profiler;
    if (profile_on)
        sim.setProbe(&profiler);
    auto wall_start = std::chrono::steady_clock::now();
    sim.run();
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();

    std::printf("simulated time     : %.2f s\n",
                toSeconds(sim.curTick()));
    std::printf("requests completed : %llu\n",
                static_cast<unsigned long long>(
                    sched.jobsCompleted()));
    const auto &lat = sched.jobLatency();
    std::printf("request latency ms : mean %.2f  p50 %.2f  p95 %.2f  "
                "p99 %.2f\n",
                lat.mean() * 1e3, lat.p50() * 1e3, lat.p95() * 1e3,
                lat.p99() * 1e3);
    std::printf("inter-tier flows   : %llu\n",
                static_cast<unsigned long long>(
                    sched.transfersStarted()));

    const char *tier_names[] = {"web", "app", "db "};
    for (int tier = 0; tier < 3; ++tier) {
        std::uint64_t tasks = 0;
        double busy = 0.0;
        for (int s = tier * 4; s < (tier + 1) * 4; ++s) {
            servers[s]->finishStats();
            tasks += servers[s]->tasksCompleted();
            for (unsigned c = 0; c < 4; ++c) {
                busy += servers[s]->core(c).residency().fraction(
                    static_cast<int>(CoreCState::c0Active));
            }
        }
        std::printf("tier %s            : %llu tasks, core "
                    "utilization %.1f%%\n",
                    tier_names[tier],
                    static_cast<unsigned long long>(tasks),
                    100.0 * busy / 16.0);
    }

    if (profile_on) {
        if (profile_out.empty()) {
            profiler.dumpJson(std::cout, wall_s, &sim.eventQueue(),
                              sim.timerWheel());
        } else {
            std::ofstream os(profile_out);
            if (!os)
                fatal("cannot open '", profile_out, "' for writing");
            profiler.dumpJson(os, wall_s, &sim.eventQueue(),
                              sim.timerWheel());
        }
        std::printf("kernel events      : %llu (%.0f events/s host)\n",
                    static_cast<unsigned long long>(
                        profiler.eventsObserved()),
                    wall_s > 0.0 ? static_cast<double>(
                                       profiler.eventsObserved()) /
                                       wall_s
                                 : 0.0);
    }
    return 0;
}
