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

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/logging.hh"
#include "telemetry/profiler.hh"
#include "three_tier_fleet.hh"

using namespace holdcsim;

int
main(int argc, char **argv)
{
    // --profile[=FILE] attaches a kernel profiler and dumps its JSON
    // summary to FILE (stdout when omitted). --wheel-granularity-us=N
    // batches the governor timers onto the Simulator's timer wheel in
    // N-us buckets (0, the default, fires each timer exactly).
    bool profile_on = false;
    std::string profile_out;
    Tick wheel_granularity = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--profile") {
            profile_on = true;
        } else if (arg.rfind("--profile=", 0) == 0) {
            profile_on = true;
            profile_out = arg.substr(10);
        } else if (arg.rfind("--wheel-granularity-us=", 0) == 0) {
            Config flag;
            flag.set("wheel_granularity_us", arg.substr(23));
            wheel_granularity =
                flag.getDuration("wheel_granularity_us", usec);
        } else {
            std::fprintf(stderr,
                         "usage: three_tier [--profile[=FILE]] "
                         "[--wheel-granularity-us=N (0 = exact)]\n");
            return 2;
        }
    }

    Simulator sim;
    sim.setTimerGranularity(wheel_granularity);
    KernelProfiler profiler;
    if (profile_on)
        sim.setProbe(&profiler);
    const ThreeTierRun run = runThreeTier(sim, 20'000);
    const double wall_s = run.wallSeconds;

    std::printf("simulated time     : %.2f s\n",
                toSeconds(sim.curTick()));
    std::printf("requests completed : %llu\n",
                static_cast<unsigned long long>(run.jobs));
    std::printf("request latency ms : mean %.2f  p50 %.2f  p95 %.2f  "
                "p99 %.2f\n",
                run.latMean * 1e3, run.latP50 * 1e3, run.latP95 * 1e3,
                run.latP99 * 1e3);
    std::printf("inter-tier flows   : %llu\n",
                static_cast<unsigned long long>(run.transfers));

    const char *tier_names[] = {"web", "app", "db "};
    for (int tier = 0; tier < 3; ++tier) {
        std::printf("tier %s            : %llu tasks, core "
                    "utilization %.1f%%\n",
                    tier_names[tier],
                    static_cast<unsigned long long>(run.tierTasks[tier]),
                    100.0 * run.tierUtilization[tier]);
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
