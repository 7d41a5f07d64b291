/**
 * @file
 * Event-kernel microbenchmark and backend-equivalence checker.
 *
 * Three workloads, each run against both EventQueue backends
 * (two-level calendar vs. plain binary heap):
 *
 *  - hold:  the classic hold model -- a fixed population of events,
 *    each pop immediately reschedules at a random future tick. Pure
 *    pop+schedule throughput at a steady queue size.
 *  - churn: hold plus deschedule/reschedule traffic (the pattern the
 *    delay-timer controllers, LPI ports and retry paths generate).
 *    This is the headline number gating the calendar queue: it must
 *    be at least ~2x the heap backend on pops+schedules per second.
 *  - replay: a hand-built three-tier fleet (web -> app -> db across a
 *    star fabric, as in examples/three_tier.cpp) run end to end on
 *    each backend. The per-request statistics must be bit-identical;
 *    events-per-host-second is reported per backend.
 *  - replay (wheel): the same fleet with the governor timers batched
 *    on the Simulator's timer wheel (Simulator::setTimerGranularity).
 *    At unit granularity the workload statistics must match exact
 *    kernel-event timers (same gate as the backend equivalence); at
 *    coarse granularity the coalesced tick count and throughput are
 *    reported.
 *  - warehouse: a --servers=N flat fleet (default 100k x 4 cores)
 *    driven by synchronized task waves, so every core's idle-demotion
 *    ladder re-arms at once. The wheel must complete the same work
 *    while collapsing the per-core governor events into shared
 *    boundary ticks.
 *  - pdes: an 8-pod PodCluster with cross-pod request forwarding run
 *    on the sequential kernel and on 1/2/4 partitions of the
 *    conservative parallel kernel (src/sim/pdes). The deterministic
 *    statistics dumps must be byte-identical across every kernel
 *    configuration; events-per-second and the window-protocol
 *    counters are reported per worker count. Speedups are relative
 *    to the sequential kernel on THIS host -- the JSON records
 *    host_cpus so a 2-core CI box's numbers are not misread as the
 *    paper-scale result.
 *
 * Every workload records the exact pop order (or final statistics)
 * and the binary exits nonzero on any divergence between backends or
 * timer disciplines, so `bench_event_kernel --quick` doubles as the
 * CI determinism smoke test. `--json=FILE` writes the numbers
 * run_kernel_profile.sh folds into BENCH_kernel.json.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dc/datacenter.hh"
#include "dc/pod_cluster.hh"
#include "sim/event.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct NullEvent : Event {
    explicit NullEvent(std::size_t index)
        : Event("bench.null"), idx(index)
    {}
    void process() override {}
    std::size_t idx;
};

/** Draw the next inter-event gap: mostly near-future ticks that land
 *  in calendar buckets, with a 1-in-128 heavy tail far enough out to
 *  spill into the overflow heap. The near-future span scales with the
 *  population (as in a real fleet, where more servers mean more --
 *  not denser -- timer traffic): each event re-fires about every
 *  4*size ticks, keeping tick density at ~0.25 events/tick for every
 *  population size. The heap backend's O(log n) cost is unaffected by
 *  gap magnitude, so the scaling favors neither backend.
 */
Tick
nextGap(Rng &rng, std::size_t size)
{
    if (rng.uniformInt(0, 127) == 0)
        return 1 * sec + rng.uniformInt(0, msec);
    return rng.uniformInt(1, 4 * size);
}

struct KernelRun {
    double seconds = 0.0;
    std::uint64_t ops = 0; // pops + schedules (+ deschedules)
    std::vector<std::size_t> popOrder;
    double opsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(ops) / seconds
                             : 0.0;
    }
};

/** Classic hold model: population of @p size events; each pop
 *  reschedules the popped event at a random future tick. */
KernelRun
runHold(EventQueue::Backend backend, std::size_t size,
        std::uint64_t n_ops, bool record_order)
{
    Rng rng(42, "hold");
    EventQueue q(backend);
    std::deque<NullEvent> events;
    Tick now = 0;
    for (std::size_t i = 0; i < size; ++i) {
        events.emplace_back(i);
        q.schedule(events.back(), now + nextGap(rng, size));
    }
    KernelRun run;
    if (record_order) {
        run.popOrder.reserve(n_ops);
    } else {
        // Untimed warm-up: let the calendar's width calibration and
        // ring resizing reach steady state (two calibration windows
        // plus one full population cycle) before the clock starts.
        for (std::uint64_t op = 0; op < 2 * 8192 + size; ++op) {
            Event &popped = q.pop();
            now = popped.when();
            q.schedule(popped, now + nextGap(rng, size));
        }
    }
    double start = now_seconds();
    for (std::uint64_t op = 0; op < n_ops; ++op) {
        Event &popped = q.pop();
        now = popped.when();
        if (record_order)
            run.popOrder.push_back(
                static_cast<NullEvent &>(popped).idx);
        q.schedule(popped, now + nextGap(rng, size));
    }
    run.seconds = now_seconds() - start;
    run.ops = 2 * n_ops; // one pop + one schedule per iteration
    for (NullEvent &ev : events)
        if (ev.scheduled())
            q.deschedule(ev);
    return run;
}

/** Hold plus deschedule/reschedule churn (timer-cancel pattern). */
KernelRun
runChurn(EventQueue::Backend backend, std::size_t size,
         std::uint64_t n_ops, bool record_order)
{
    Rng rng(43, "churn");
    EventQueue q(backend);
    std::deque<NullEvent> events;
    Tick now = 0;
    for (std::size_t i = 0; i < size; ++i) {
        events.emplace_back(i);
        q.schedule(events.back(), now + nextGap(rng, size));
    }
    KernelRun run;
    if (record_order) {
        run.popOrder.reserve(n_ops);
    } else {
        for (std::uint64_t op = 0; op < 2 * 8192 + size; ++op) {
            Event &popped = q.pop();
            now = popped.when();
            q.schedule(popped, now + nextGap(rng, size));
        }
    }
    std::uint64_t extra_ops = 0;
    double start = now_seconds();
    for (std::uint64_t op = 0; op < n_ops; ++op) {
        Event &popped = q.pop();
        now = popped.when();
        if (record_order)
            run.popOrder.push_back(
                static_cast<NullEvent &>(popped).idx);
        q.schedule(popped, now + nextGap(rng, size));
        // Every 16th iteration a random timer is cancelled and
        // re-armed, every 32nd it is moved (reschedule) -- the
        // delay-timer / LPI cancel rate observed in the farm runs is
        // a few percent of the pop rate.
        if (op % 16 == 0) {
            NullEvent &victim = events[rng.uniformInt(0, size - 1)];
            if (victim.scheduled()) {
                q.deschedule(victim);
                q.schedule(victim, now + nextGap(rng, size));
                extra_ops += 2;
            }
        } else if (op % 32 == 1) {
            NullEvent &victim = events[rng.uniformInt(0, size - 1)];
            if (victim.scheduled()) {
                q.reschedule(victim, now + nextGap(rng, size));
                extra_ops += 1;
            }
        }
    }
    run.seconds = now_seconds() - start;
    run.ops = 2 * n_ops + extra_ops;
    for (NullEvent &ev : events)
        if (ev.scheduled())
            q.deschedule(ev);
    return run;
}

constexpr int webTier = 1;
constexpr int appTier = 2;
constexpr int dbTier = 3;

struct ReplayStats {
    std::uint64_t jobs = 0;
    std::uint64_t transfers = 0;
    std::uint64_t eventsProcessed = 0;
    Tick endTick = 0;
    double latMean = 0.0, latP50 = 0.0, latP95 = 0.0, latP99 = 0.0;
    double wallSeconds = 0.0;
    /** Wheel counters (zero when running exact timers). */
    std::uint64_t wheelTickEvents = 0;
    std::uint64_t wheelFired = 0;

    bool identicalTo(const ReplayStats &o) const
    {
        // Exact equality on purpose: the backends must be
        // observationally indistinguishable, down to the last bit of
        // every derived statistic.
        return jobs == o.jobs && transfers == o.transfers &&
               eventsProcessed == o.eventsProcessed &&
               endTick == o.endTick && latMean == o.latMean &&
               latP50 == o.latP50 && latP95 == o.latP95 &&
               latP99 == o.latP99;
    }
    /**
     * Workload-statistics equality across timer disciplines. The
     * wheel replaces each governor timer event with a shared boundary
     * tick, so the raw event count legitimately differs; everything
     * the workload can observe must not.
     */
    bool equivalentTo(const ReplayStats &o) const
    {
        return jobs == o.jobs && transfers == o.transfers &&
               endTick == o.endTick && latMean == o.latMean &&
               latP50 == o.latP50 && latP95 == o.latP95 &&
               latP99 == o.latP99;
    }
    double eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(eventsProcessed) / wallSeconds
                   : 0.0;
    }
};

/** The three_tier example fleet, shrunk into a harness: 12 typed
 *  servers behind a star switch serving web->app->db request chains.
 *  @p wheel_granularity 0 keeps exact timers; otherwise the
 *  governor ladders ride the timer wheel with that bucket width. */
ReplayStats
runReplay(EventQueue::Backend backend, std::size_t n_requests,
          Tick wheel_granularity = 0)
{
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
        cfg.taskTypes = {i < 4 ? webTier : i < 8 ? appTier : dbTier};
        auto server = std::make_unique<Server>(sim, cfg, profile);
        servers.push_back(server.get());
        owned.push_back(std::move(server));
    }
    GlobalScheduler sched(sim, servers,
                          std::make_unique<LeastLoadedPolicy>(), {},
                          &net);

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

    double start = now_seconds();
    sim.run();
    ReplayStats s;
    s.wallSeconds = now_seconds() - start;
    s.jobs = sched.jobsCompleted();
    s.transfers = sched.transfersStarted();
    s.eventsProcessed = sim.eventsProcessed();
    s.endTick = sim.curTick();
    const auto &lat = sched.jobLatency();
    s.latMean = lat.mean();
    s.latP50 = lat.p50();
    s.latP95 = lat.p95();
    s.latP99 = lat.p99();
    if (const TimerWheel *wheel = sim.timerWheel()) {
        s.wheelTickEvents = wheel->stats().tickEvents;
        s.wheelFired = wheel->stats().fired;
    }
    return s;
}

struct WarehouseStats {
    std::uint64_t completions = 0;
    std::uint64_t eventsProcessed = 0;
    Tick endTick = 0;
    double wallSeconds = 0.0;
    std::uint64_t wheelTickEvents = 0;
    std::uint64_t wheelFired = 0;
    std::uint64_t wheelMaxBatch = 0;

    double eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(eventsProcessed) / wallSeconds
                   : 0.0;
    }
};

/**
 * Warehouse-scale governor churn: @p n_servers flat servers (4 cores
 * each, no fabric, no global scheduler) hit by @p waves synchronized
 * waves of one short task per server. Every completion re-enters the
 * idle-demotion ladder at the same instant across the fleet -- the
 * worst case for per-core timer events and the best case for the
 * shared wheel, which folds each aligned boundary into one tick.
 * Only the sim.run() is timed; fleet construction is not.
 */
WarehouseStats
runWarehouse(std::size_t n_servers, unsigned waves,
             Tick wheel_granularity)
{
    Simulator sim(EventQueue::Backend::calendar);
    sim.setTimerGranularity(wheel_granularity);
    ServerPowerProfile profile;
    std::vector<std::unique_ptr<Server>> servers;
    servers.reserve(n_servers);
    std::uint64_t completions = 0;
    for (std::size_t i = 0; i < n_servers; ++i) {
        ServerConfig cfg;
        cfg.id = static_cast<unsigned>(i);
        cfg.nCores = 4;
        servers.push_back(
            std::make_unique<Server>(sim, cfg, profile));
        servers.back()->setTaskDoneCallback(
            [&completions](Server &, const TaskRef &) {
                ++completions;
            });
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

    double start = now_seconds();
    sim.run();
    WarehouseStats w;
    w.wallSeconds = now_seconds() - start;
    w.completions = completions;
    w.eventsProcessed = sim.eventsProcessed();
    w.endTick = sim.curTick();
    if (const TimerWheel *wheel = sim.timerWheel()) {
        w.wheelTickEvents = wheel->stats().tickEvents;
        w.wheelFired = wheel->stats().fired;
        w.wheelMaxBatch = wheel->stats().maxBatch;
    }
    return w;
}

// ---------------------------------------------------------------------------
// pdes: pod-partitioned cluster, sequential vs windowed-parallel.
// ---------------------------------------------------------------------------

struct PdesRun {
    double wallSeconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    std::uint64_t fastForwards = 0;
    double blockedFraction = 0.0;
    std::string dump;

    double eventsPerSec() const
    {
        return wallSeconds > 0.0 ? double(events) / wallSeconds : 0.0;
    }
};

PdesRun
runPods(const PodClusterConfig &cfg, unsigned partitions)
{
    PodCluster cluster(cfg, partitions);
    double start = now_seconds();
    cluster.run();
    PdesRun r;
    r.wallSeconds = now_seconds() - start;
    r.events = cluster.eventsTotal();
    if (partitions >= 2) {
        const auto &st = cluster.pdesStats();
        r.windows = st.windows;
        r.messages = st.messages;
        r.fastForwards = st.fastForwards;
        r.blockedFraction = st.blockedFraction();
    }
    std::ostringstream os;
    cluster.dumpStats(os);
    r.dump = os.str();
    return r;
}

bool
sameOrder(const char *what, const KernelRun &cal, const KernelRun &heap)
{
    if (cal.popOrder == heap.popOrder)
        return true;
    std::size_t i = 0;
    while (i < cal.popOrder.size() && i < heap.popOrder.size() &&
           cal.popOrder[i] == heap.popOrder[i])
        ++i;
    std::fprintf(stderr,
                 "FAIL: %s pop order diverges at pop %zu "
                 "(calendar=%zu heap=%zu)\n",
                 what, i,
                 i < cal.popOrder.size() ? cal.popOrder[i] : SIZE_MAX,
                 i < heap.popOrder.size() ? heap.popOrder[i]
                                          : SIZE_MAX);
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string json_out;
    std::size_t servers_override = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json_out = arg.substr(7);
        } else if (arg.rfind("--servers=", 0) == 0) {
            servers_override =
                static_cast<std::size_t>(std::stoull(arg.substr(10)));
        } else {
            std::fprintf(stderr,
                         "usage: bench_event_kernel [--quick] "
                         "[--json=FILE] [--servers=N]\n");
            return 2;
        }
    }

    const std::size_t hold_small = 1024;
    const std::size_t hold_large = quick ? 8192 : 65536;
    // Headline churn population: the in-flight event count of a
    // ~50-server farm (timers + tasks + flows), where the calendar's
    // working set still fits the cache hierarchy comfortably.
    const std::size_t churn_size = quick ? 2048 : 8192;
    const std::uint64_t n_ops = quick ? 200'000 : 4'000'000;
    const std::size_t n_requests = quick ? 2'000 : 20'000;
    // Warehouse point: the paper-scale fleet. Quick mode keeps the
    // same shape at a size a sanitizer job can afford.
    const std::size_t warehouse_servers =
        servers_override ? servers_override
                         : (quick ? 4'096 : 100'000);
    const unsigned warehouse_waves = 2;
    // Coarse bucket: one boundary per 100 us lines up with the
    // C3/C6 demotion thresholds, so aligned ladders coalesce fully.
    const Tick warehouse_granularity = 100 * usec;
    const Tick replay_coarse_granularity = 1 * msec;

    bool ok = true;

    // ---- equivalence passes (always recorded, always checked) ----
    {
        KernelRun cal = runHold(EventQueue::Backend::calendar,
                                hold_small, n_ops / 4, true);
        KernelRun heap = runHold(EventQueue::Backend::binaryHeap,
                                 hold_small, n_ops / 4, true);
        ok &= sameOrder("hold", cal, heap);
        KernelRun ccal = runChurn(EventQueue::Backend::calendar,
                                  hold_small, n_ops / 4, true);
        KernelRun cheap = runChurn(EventQueue::Backend::binaryHeap,
                                   hold_small, n_ops / 4, true);
        ok &= sameOrder("churn", ccal, cheap);
    }

    // ---- timed passes (order recording off: no push_back in loop) --
    KernelRun holdS_cal = runHold(EventQueue::Backend::calendar,
                                  hold_small, n_ops, false);
    KernelRun holdS_heap = runHold(EventQueue::Backend::binaryHeap,
                                   hold_small, n_ops, false);
    KernelRun holdL_cal = runHold(EventQueue::Backend::calendar,
                                  hold_large, n_ops, false);
    KernelRun holdL_heap = runHold(EventQueue::Backend::binaryHeap,
                                   hold_large, n_ops, false);
    KernelRun churn_cal = runChurn(EventQueue::Backend::calendar,
                                   churn_size, n_ops, false);
    KernelRun churn_heap = runChurn(EventQueue::Backend::binaryHeap,
                                    churn_size, n_ops, false);

    // ---- end-to-end replay: stats must be bit-identical ----------
    ReplayStats replay_cal =
        runReplay(EventQueue::Backend::calendar, n_requests);
    ReplayStats replay_heap =
        runReplay(EventQueue::Backend::binaryHeap, n_requests);
    if (!replay_cal.identicalTo(replay_heap)) {
        std::fprintf(stderr,
                     "FAIL: three-tier replay stats differ between "
                     "backends (jobs %llu/%llu, events %llu/%llu, "
                     "end tick %llu/%llu)\n",
                     (unsigned long long)replay_cal.jobs,
                     (unsigned long long)replay_heap.jobs,
                     (unsigned long long)replay_cal.eventsProcessed,
                     (unsigned long long)replay_heap.eventsProcessed,
                     (unsigned long long)replay_cal.endTick,
                     (unsigned long long)replay_heap.endTick);
        ok = false;
    }

    // ---- timer-wheel gate: unit granularity must match exactly ---
    ReplayStats replay_wheel1 =
        runReplay(EventQueue::Backend::calendar, n_requests, 1);
    if (!replay_wheel1.equivalentTo(replay_cal)) {
        std::fprintf(stderr,
                     "FAIL: unit-granularity wheel replay diverges "
                     "from exact timers (jobs %llu/%llu, end tick "
                     "%llu/%llu, mean latency %.17g/%.17g)\n",
                     (unsigned long long)replay_wheel1.jobs,
                     (unsigned long long)replay_cal.jobs,
                     (unsigned long long)replay_wheel1.endTick,
                     (unsigned long long)replay_cal.endTick,
                     replay_wheel1.latMean, replay_cal.latMean);
        ok = false;
    }

    // ---- coarse wheel: coalescing throughput (approximate timing) -
    ReplayStats replay_wheelC = runReplay(
        EventQueue::Backend::calendar, n_requests,
        replay_coarse_granularity);
    if (replay_wheelC.jobs != replay_cal.jobs) {
        std::fprintf(stderr,
                     "FAIL: coarse wheel replay lost work (jobs "
                     "%llu/%llu)\n",
                     (unsigned long long)replay_wheelC.jobs,
                     (unsigned long long)replay_cal.jobs);
        ok = false;
    }

    // ---- warehouse fleet: exact vs. wheel at 100k x 4 cores ----
    WarehouseStats wh_events =
        runWarehouse(warehouse_servers, warehouse_waves, 0);
    WarehouseStats wh_wheel = runWarehouse(
        warehouse_servers, warehouse_waves, warehouse_granularity);
    if (wh_events.completions != wh_wheel.completions ||
        wh_events.completions !=
            warehouse_servers * warehouse_waves) {
        std::fprintf(stderr,
                     "FAIL: warehouse completions differ (events "
                     "%llu, wheel %llu, expected %llu)\n",
                     (unsigned long long)wh_events.completions,
                     (unsigned long long)wh_wheel.completions,
                     (unsigned long long)(warehouse_servers *
                                          warehouse_waves));
        ok = false;
    }

    // ---- pdes: the parallel kernel must be statistics-invisible --
    PodClusterConfig pdes_cfg;
    pdes_cfg.pods = 8;
    pdes_cfg.requestsPerPod = quick ? 600 : 6'000;
    pdes_cfg.arrivalRate = 1'500.0;
    pdes_cfg.forwardProbability = 0.3;
    // A metro-scale 1 ms inter-pod latency: wide windows amortize the
    // barrier, which a 2-core CI host needs to show any overlap at
    // all. The conservative protocol is latency-bound by design --
    // the tests cover the tight 20 us default.
    pdes_cfg.interPodLatency = 1 * msec;
    pdes_cfg.statsHorizon = quick ? 1 * sec : 6 * sec;
    pdes_cfg.seed = 7;

    PdesRun pdes_seq = runPods(pdes_cfg, 0);
    const unsigned pdes_workers[] = {1, 2, 4};
    std::vector<PdesRun> pdes_par;
    for (unsigned w : pdes_workers) {
        pdes_par.push_back(runPods(pdes_cfg, w));
        if (pdes_par.back().dump != pdes_seq.dump) {
            std::fprintf(stderr,
                         "FAIL: pdes dump with %u partitions differs "
                         "from the sequential kernel\n",
                         w);
            ok = false;
        }
    }

    double hold_small_speedup =
        holdS_heap.opsPerSec() > 0.0
            ? holdS_cal.opsPerSec() / holdS_heap.opsPerSec()
            : 0.0;
    double hold_large_speedup =
        holdL_heap.opsPerSec() > 0.0
            ? holdL_cal.opsPerSec() / holdL_heap.opsPerSec()
            : 0.0;
    double churn_speedup =
        churn_heap.opsPerSec() > 0.0
            ? churn_cal.opsPerSec() / churn_heap.opsPerSec()
            : 0.0;

    std::printf("workload            calendar ops/s      heap ops/s  "
                "speedup\n");
    std::printf("hold  n=%-6zu  %15.0f %15.0f    %.2fx\n", hold_small,
                holdS_cal.opsPerSec(), holdS_heap.opsPerSec(),
                hold_small_speedup);
    std::printf("hold  n=%-6zu  %15.0f %15.0f    %.2fx\n", hold_large,
                holdL_cal.opsPerSec(), holdL_heap.opsPerSec(),
                hold_large_speedup);
    std::printf("churn n=%-6zu  %15.0f %15.0f    %.2fx\n", churn_size,
                churn_cal.opsPerSec(), churn_heap.opsPerSec(),
                churn_speedup);
    std::printf("replay (three-tier, %zu requests): calendar %.0f "
                "events/s, heap %.0f events/s\n",
                n_requests, replay_cal.eventsPerSec(),
                replay_heap.eventsPerSec());
    std::printf("replay wheel g=1: %.0f events/s, %llu governor "
                "timers in %llu ticks, stats %s\n",
                replay_wheel1.eventsPerSec(),
                (unsigned long long)replay_wheel1.wheelFired,
                (unsigned long long)replay_wheel1.wheelTickEvents,
                replay_wheel1.equivalentTo(replay_cal) ? "identical"
                                                       : "DIVERGED");
    std::printf("replay wheel g=%lluus: %.0f events/s, %llu governor "
                "timers coalesced into %llu ticks (%llu -> %llu "
                "events processed)\n",
                (unsigned long long)(replay_coarse_granularity / usec),
                replay_wheelC.eventsPerSec(),
                (unsigned long long)replay_wheelC.wheelFired,
                (unsigned long long)replay_wheelC.wheelTickEvents,
                (unsigned long long)replay_cal.eventsProcessed,
                (unsigned long long)replay_wheelC.eventsProcessed);
    std::printf("warehouse (%zu servers x 4 cores, %u waves): events "
                "%.0f ev/s (%llu events), wheel %.0f ev/s (%llu "
                "events, %llu timers in %llu ticks, max batch "
                "%llu)\n",
                warehouse_servers, warehouse_waves,
                wh_events.eventsPerSec(),
                (unsigned long long)wh_events.eventsProcessed,
                wh_wheel.eventsPerSec(),
                (unsigned long long)wh_wheel.eventsProcessed,
                (unsigned long long)wh_wheel.wheelFired,
                (unsigned long long)wh_wheel.wheelTickEvents,
                (unsigned long long)wh_wheel.wheelMaxBatch);
    const unsigned host_cpus = std::thread::hardware_concurrency();
    std::printf("pdes (%u pods, %zu req/pod, host_cpus=%u): "
                "sequential %.0f ev/s\n",
                pdes_cfg.pods, pdes_cfg.requestsPerPod, host_cpus,
                pdes_seq.eventsPerSec());
    for (std::size_t i = 0; i < pdes_par.size(); ++i) {
        const PdesRun &r = pdes_par[i];
        std::printf("pdes workers=%u: %.0f ev/s (%.2fx), %llu windows, "
                    "%llu messages, %llu fast-forwards, blocked "
                    "%.0f%%, stats %s\n",
                    pdes_workers[i], r.eventsPerSec(),
                    pdes_seq.eventsPerSec() > 0.0
                        ? r.eventsPerSec() / pdes_seq.eventsPerSec()
                        : 0.0,
                    (unsigned long long)r.windows,
                    (unsigned long long)r.messages,
                    (unsigned long long)r.fastForwards,
                    100.0 * r.blockedFraction,
                    r.dump == pdes_seq.dump ? "identical" : "DIVERGED");
    }
    std::printf("backend equivalence: %s\n", ok ? "OK" : "FAILED");

    if (!json_out.empty()) {
        std::ofstream os(json_out);
        if (!os)
            fatal("cannot open '", json_out, "' for writing");
        os << "{\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"ops\": " << n_ops << ",\n";
        os << "  \"hold_small\": {\"n\": " << hold_small
           << ", \"calendar_ops_per_sec\": " << holdS_cal.opsPerSec()
           << ", \"heap_ops_per_sec\": " << holdS_heap.opsPerSec()
           << ", \"speedup\": " << hold_small_speedup << "},\n";
        os << "  \"hold_large\": {\"n\": " << hold_large
           << ", \"calendar_ops_per_sec\": " << holdL_cal.opsPerSec()
           << ", \"heap_ops_per_sec\": " << holdL_heap.opsPerSec()
           << ", \"speedup\": " << hold_large_speedup << "},\n";
        os << "  \"churn\": {\"n\": " << churn_size
           << ", \"calendar_ops_per_sec\": " << churn_cal.opsPerSec()
           << ", \"heap_ops_per_sec\": " << churn_heap.opsPerSec()
           << ", \"speedup\": " << churn_speedup << "},\n";
        os << "  \"replay\": {\"requests\": " << n_requests
           << ", \"calendar_events_per_sec\": "
           << replay_cal.eventsPerSec()
           << ", \"heap_events_per_sec\": "
           << replay_heap.eventsPerSec()
           << ", \"stats_identical\": "
           << (replay_cal.identicalTo(replay_heap) ? "true" : "false")
           << "},\n";
        os << "  \"replay_wheel\": {\"unit_events_per_sec\": "
           << replay_wheel1.eventsPerSec()
           << ", \"unit_stats_identical\": "
           << (replay_wheel1.equivalentTo(replay_cal) ? "true"
                                                      : "false")
           << ", \"coarse_granularity_us\": "
           << replay_coarse_granularity / usec
           << ", \"coarse_events_per_sec\": "
           << replay_wheelC.eventsPerSec()
           << ", \"coarse_events_processed\": "
           << replay_wheelC.eventsProcessed
           << ", \"events_mode_events_processed\": "
           << replay_cal.eventsProcessed
           << ", \"coarse_timers_fired\": " << replay_wheelC.wheelFired
           << ", \"coarse_tick_events\": "
           << replay_wheelC.wheelTickEvents << "},\n";
        os << "  \"warehouse\": {\"servers\": " << warehouse_servers
           << ", \"cores_per_server\": 4"
           << ", \"waves\": " << warehouse_waves
           << ", \"events_mode_events_per_sec\": "
           << wh_events.eventsPerSec()
           << ", \"events_mode_events_processed\": "
           << wh_events.eventsProcessed
           << ", \"events_mode_wall_seconds\": "
           << wh_events.wallSeconds
           << ", \"wheel_wall_seconds\": " << wh_wheel.wallSeconds
           << ", \"wheel_granularity_us\": "
           << warehouse_granularity / usec
           << ", \"wheel_events_per_sec\": " << wh_wheel.eventsPerSec()
           << ", \"wheel_events_processed\": "
           << wh_wheel.eventsProcessed
           << ", \"wheel_timers_fired\": " << wh_wheel.wheelFired
           << ", \"wheel_tick_events\": " << wh_wheel.wheelTickEvents
           << ", \"wheel_max_batch\": " << wh_wheel.wheelMaxBatch
           << ", \"completions_identical\": "
           << (wh_events.completions == wh_wheel.completions
                   ? "true"
                   : "false")
           << "},\n";
        os << "  \"pdes\": {\"pods\": " << pdes_cfg.pods
           << ", \"requests_per_pod\": " << pdes_cfg.requestsPerPod
           << ", \"host_cpus\": " << host_cpus
           << ", \"lookahead_us\": "
           << pdes_cfg.interPodLatency / usec
           << ", \"sequential_events_per_sec\": "
           << pdes_seq.eventsPerSec()
           << ", \"events_total\": " << pdes_seq.events
           << ", \"workers\": [";
        for (std::size_t i = 0; i < pdes_par.size(); ++i) {
            const PdesRun &r = pdes_par[i];
            os << (i ? ", " : "") << "{\"workers\": "
               << pdes_workers[i]
               << ", \"events_per_sec\": " << r.eventsPerSec()
               << ", \"speedup\": "
               << (pdes_seq.eventsPerSec() > 0.0
                       ? r.eventsPerSec() / pdes_seq.eventsPerSec()
                       : 0.0)
               << ", \"windows\": " << r.windows
               << ", \"messages\": " << r.messages
               << ", \"fast_forwards\": " << r.fastForwards
               << ", \"blocked_fraction\": " << r.blockedFraction
               << ", \"stats_identical\": "
               << (r.dump == pdes_seq.dump ? "true" : "false") << "}";
        }
        os << "]},\n";
        os << "  \"backends_equivalent\": " << (ok ? "true" : "false")
           << "\n";
        os << "}\n";
    }
    return ok ? 0 : 1;
}
