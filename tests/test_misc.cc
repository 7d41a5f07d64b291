/**
 * @file
 * Focused tests for smaller API surfaces: background events, port
 * and line-card off states, flow-manager introspection, bulk-send
 * edge cases, scheduler load metrics and config plumbing.
 */

#include <gtest/gtest.h>

#include <memory>

#include "dc/dc_config.hh"
#include "network/net_model.hh"
#include "network/network.hh"
#include "sched/global_scheduler.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "workload/arrival.hh"

using namespace holdcsim;

// ------------------------------------------------------- background events

TEST(BackgroundEvents, RunReturnsWhenOnlyBackgroundRemain)
{
    Simulator sim;
    int fg = 0, bg = 0;
    EventFunctionWrapper fg_ev([&] { ++fg; }, "fg");
    EventFunctionWrapper bg_ev([&] { ++bg; }, "bg");
    bg_ev.setBackground(true);
    sim.schedule(fg_ev, 10);
    sim.schedule(bg_ev, 20);
    sim.run();
    // The foreground event ran; the background one is still pending
    // and did not keep the simulation alive.
    EXPECT_EQ(fg, 1);
    EXPECT_EQ(bg, 0);
    EXPECT_EQ(sim.curTick(), 10u);
    EXPECT_TRUE(bg_ev.scheduled());
    EXPECT_EQ(sim.eventQueue().foregroundCount(), 0u);
    EXPECT_EQ(sim.eventQueue().size(), 1u);
    sim.deschedule(bg_ev);
}

TEST(BackgroundEvents, RunUntilStillProcessesBackground)
{
    Simulator sim;
    int bg = 0;
    EventFunctionWrapper bg_ev(
        [&] {
            ++bg;
            if (bg < 3)
                sim.scheduleAfter(bg_ev, 10);
        },
        "bg");
    bg_ev.setBackground(true);
    sim.schedule(bg_ev, 10);
    sim.runUntil(100);
    EXPECT_EQ(bg, 3);
}

TEST(BackgroundEvents, CannotFlipWhileScheduled)
{
    Simulator sim;
    EventFunctionWrapper ev([] {}, "ev");
    sim.schedule(ev, 1);
    EXPECT_DEATH(ev.setBackground(true), "background");
    sim.deschedule(ev);
    EXPECT_NO_THROW(ev.setBackground(true));
}

TEST(BackgroundEvents, ForegroundCountTracksMixedOperations)
{
    EventQueue q;
    EventFunctionWrapper a([] {}, "a"), b([] {}, "b");
    b.setBackground(true);
    q.schedule(a, 1);
    q.schedule(b, 2);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.foregroundCount(), 1u);
    q.deschedule(a);
    EXPECT_EQ(q.foregroundCount(), 0u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(&q.pop(), &b);
    EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------- port/card off

TEST(PortOff, OffPortsDrawNothingAndRejectTraffic)
{
    Simulator sim;
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    SwitchConfig cfg;
    cfg.portRates.assign(2, 1e9);
    Switch sw(sim, cfg, prof);
    sw.port(0).powerOff();
    EXPECT_EQ(sw.port(0).state(), PortState::off);
    EXPECT_DOUBLE_EQ(sw.port(0).power(), prof.portOff);
    // Waking an off port for traffic is a configuration error.
    EXPECT_THROW(sw.port(0).wake(), FatalError);
    // The other port still works.
    EXPECT_EQ(sw.port(1).wake(), 0u);
}

TEST(PortOff, LineCardOffRejectedWhileBusy)
{
    Simulator sim;
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    SwitchConfig cfg;
    cfg.portRates.assign(2, 1e9);
    Switch sw(sim, cfg, prof);
    sw.port(0).flowStarted();
    EXPECT_THROW(sw.lineCard(0).powerOff(), FatalError);
    sw.port(0).flowEnded();
    EXPECT_NO_THROW(sw.lineCard(0).powerOff());
    EXPECT_EQ(sw.lineCard(0).state(), LineCardState::off);
    EXPECT_DOUBLE_EQ(sw.lineCard(0).power(), prof.linecardOff);
}

TEST(SwitchSleep, TrySleepRefusedWhileBusy)
{
    Simulator sim;
    SwitchPowerProfile prof = SwitchPowerProfile::cisco2960_24();
    SwitchConfig cfg;
    cfg.portRates.assign(2, 1e9);
    Switch sw(sim, cfg, prof);
    sw.port(0).flowStarted();
    EXPECT_FALSE(sw.trySleep());
    sw.port(0).flowEnded();
    EXPECT_TRUE(sw.trySleep());
    EXPECT_TRUE(sw.asleep());
    EXPECT_TRUE(sw.trySleep()); // idempotent
}

// ------------------------------------------------------ flow introspection

TEST(FlowIntrospection, RatesAndUtilization)
{
    Simulator sim;
    auto topo = Topology::star(3, 1e9, 5 * usec);
    StaticRouting routing(topo);
    NetModel mgr(sim, topo);
    auto route_a = routing.route(topo.serverNode(0),
                                 topo.serverNode(1), 1);
    auto route_b = routing.route(topo.serverNode(2),
                                 topo.serverNode(1), 2);
    LinkId shared = route_a.links.back(); // server 1's downlink
    FlowId a = mgr.startFlow(route_a, 125'000'000, [] {});
    FlowId b = mgr.startFlow(route_b, 125'000'000, [] {});
    sim.runUntil(10 * msec); // both active and sharing
    EXPECT_NEAR(mgr.flowRate(a), 5e8, 1e6);
    EXPECT_NEAR(mgr.flowRate(b), 5e8, 1e6);
    EXPECT_NEAR(mgr.linkUtilization(shared), 1.0, 0.01);
    EXPECT_DOUBLE_EQ(mgr.flowRate(999), 0.0); // unknown flow
    sim.run();
    EXPECT_EQ(mgr.flowsCompleted(), 2u);
}

// ------------------------------------------------------------- bulk sends

TEST(BulkSend, ZeroBytesStillCompletes)
{
    Simulator sim;
    Network net(sim, Topology::star(2, 1e9, 5 * usec),
                SwitchPowerProfile::cisco2960_24());
    bool done = false;
    net.sendBulk(0, 1, 0, [&](std::uint64_t drops) {
        done = true;
        EXPECT_EQ(drops, 0u);
    });
    sim.run();
    EXPECT_TRUE(done);
}

TEST(BulkSend, NicPacingPreservesOrderAcrossMessages)
{
    // Two back-to-back bulk sends from one server: all of the first
    // message's packets leave the NIC before the second's arrive.
    Simulator sim;
    Network net(sim, Topology::star(3, 1e9, 5 * usec),
                SwitchPowerProfile::cisco2960_24());
    Tick first_done = 0, second_done = 0;
    net.sendBulk(0, 1, 15'000,
                 [&](std::uint64_t) { first_done = sim.curTick(); });
    net.sendBulk(0, 2, 15'000,
                 [&](std::uint64_t) { second_done = sim.curTick(); });
    sim.run();
    EXPECT_GT(first_done, 0u);
    EXPECT_GT(second_done, first_done);
}

// --------------------------------------------------------- scheduler misc

TEST(SchedulerLoad, LoadPerEligibleCountsGlobalQueue)
{
    Simulator sim;
    ServerPowerProfile prof;
    ServerConfig cfg;
    cfg.nCores = 1;
    Server s0(sim, cfg, prof);
    GlobalSchedulerConfig gsc;
    gsc.useGlobalQueue = true;
    GlobalScheduler sched(sim, {&s0},
                          std::make_unique<LeastLoadedPolicy>(), gsc);
    for (JobId i = 0; i < 5; ++i) {
        Job j(i, 0);
        j.addTask(TaskSpec{10 * msec, 0, 1.0});
        j.validate();
        sched.submitJob(std::move(j));
    }
    // One running, four centrally queued: load = 5 on 1 server.
    EXPECT_EQ(sched.globalQueueLength(), 4u);
    EXPECT_DOUBLE_EQ(sched.loadPerEligibleServer(), 5.0);
    sim.run();
    EXPECT_DOUBLE_EQ(sched.loadPerEligibleServer(), 0.0);
}

TEST(SchedulerLoad, ZeroEligibleIsZeroLoad)
{
    Simulator sim;
    ServerPowerProfile prof;
    ServerConfig cfg;
    Server s0(sim, cfg, prof);
    GlobalScheduler sched(sim, {&s0},
                          std::make_unique<LeastLoadedPolicy>());
    sched.setEligible(0, false);
    EXPECT_DOUBLE_EQ(sched.loadPerEligibleServer(), 0.0);
}

// ------------------------------------------------------------ config keys

TEST(DcConfigExtra, AntiAffinityKeyParsed)
{
    auto cfg = DataCenterConfig::fromConfig(Config::parseString(
        "[scheduler]\nanti_affinity = true\n"));
    EXPECT_TRUE(cfg.taskAntiAffinity);
    auto off = DataCenterConfig::fromConfig(Config::parseString(""));
    EXPECT_FALSE(off.taskAntiAffinity);
}

TEST(ProfileLifetime, TemporaryProfilesDoNotDangle)
{
    // Regression: Server/Switch used to hold references to the
    // caller's profile; constructing them with a temporary produced
    // garbage transition latencies (LPI timers thousands of seconds
    // out). Components now own a copy.
    Simulator sim;
    Network net(sim, Topology::star(2, 1e9, 5 * usec),
                SwitchPowerProfile::cisco2960_24()); // temporary!
    ServerConfig cfg;
    Server server(sim, cfg, ServerPowerProfile{}); // temporary!
    server.submit(TaskRef{0, 0, 1 * msec, 1.0, 0});
    bool got = false;
    net.sendPacket(0, 1, 1500, [&](const Packet &) { got = true; });
    sim.run();
    EXPECT_TRUE(got);
    // The drained simulation must end on a sane clock: task (1 ms) +
    // demotions/LPI thresholds, not a garbage-latency event horizon.
    EXPECT_LT(sim.curTick(), 1 * sec);
}

TEST(Mmpp2Extra, StartsInQuietState)
{
    Mmpp2Arrival arr(100.0, 10.0, 1.0, 1.0, Rng(1, "m"));
    EXPECT_FALSE(arr.inBurstyState());
}
