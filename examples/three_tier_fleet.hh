/**
 * @file
 * The three-tier case-study fleet, shared by examples/three_tier.cpp
 * and bench/bench_e2e.cpp: 12 typed servers behind one star switch
 * (4 web, 4 app, 4 db) serving web -> app -> db request chains whose
 * 64 kB inter-tier results cross the fabric. DataCenter builds
 * untyped servers, so the fleet is assembled from the lower-level
 * API.
 */

#ifndef HOLDCSIM_EXAMPLES_THREE_TIER_FLEET_HH
#define HOLDCSIM_EXAMPLES_THREE_TIER_FLEET_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "dc/datacenter.hh"
#include "workload/service.hh"

namespace holdcsim {

/** What one three-tier run produced. */
struct ThreeTierRun {
    std::uint64_t jobs = 0;
    std::uint64_t transfers = 0;
    /** Request latency, seconds. */
    double latMean = 0.0, latP50 = 0.0, latP95 = 0.0, latP99 = 0.0;
    /** Per tier (web, app, db): tasks completed and mean core
     *  utilization over the run. */
    std::uint64_t tierTasks[3] = {};
    double tierUtilization[3] = {};
    /** Host seconds spent in sim.run(); fleet construction excluded. */
    double wallSeconds = 0.0;
};

/**
 * Build the fleet on @p sim, inject @p n_requests Poisson requests
 * (600/s) and run to completion. The caller owns the Simulator, so it
 * picks the queue backend, timer granularity and probe.
 */
inline ThreeTierRun
runThreeTier(Simulator &sim, std::size_t n_requests)
{
    constexpr int webTier = 1;
    constexpr int appTier = 2;
    constexpr int dbTier = 3;

    ServerPowerProfile profile;
    Network net(sim, Topology::star(12, 1e9, 5 * usec),
                SwitchPowerProfile::cisco2960_24());
    std::vector<std::unique_ptr<Server>> owned;
    std::vector<Server *> servers;
    for (unsigned i = 0; i < 12; ++i) {
        ServerConfig cfg;
        cfg.id = i;
        cfg.nCores = 4;
        cfg.taskTypes = {i < 4 ? webTier : i < 8 ? appTier : dbTier};
        owned.push_back(std::make_unique<Server>(sim, cfg, profile));
        servers.push_back(owned.back().get());
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
    std::size_t injected = 0;
    EventFunctionWrapper inject(
        [&] {
            sched.submitJob(requests.makeJob(sim.curTick()));
            if (++injected < n_requests)
                sim.schedule(inject, arrivals.nextArrival());
        },
        "inject");
    sim.schedule(inject, arrivals.nextArrival());

    auto start = std::chrono::steady_clock::now();
    sim.run();
    ThreeTierRun r;
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    r.jobs = sched.jobsCompleted();
    r.transfers = sched.transfersStarted();
    const auto &lat = sched.jobLatency();
    r.latMean = lat.mean();
    r.latP50 = lat.p50();
    r.latP95 = lat.p95();
    r.latP99 = lat.p99();
    for (int tier = 0; tier < 3; ++tier) {
        double busy = 0.0;
        for (int s = tier * 4; s < (tier + 1) * 4; ++s) {
            servers[s]->finishStats();
            r.tierTasks[tier] += servers[s]->tasksCompleted();
            for (unsigned c = 0; c < 4; ++c)
                busy += servers[s]->core(c).residency().fraction(
                    static_cast<int>(CoreCState::c0Active));
        }
        r.tierUtilization[tier] = busy / 16.0;
    }
    return r;
}

} // namespace holdcsim

#endif // HOLDCSIM_EXAMPLES_THREE_TIER_FLEET_HH
