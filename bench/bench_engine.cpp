/**
 * @file
 * Engine microbenchmarks (google-benchmark): the "light-weight"
 * claim of the paper rests on raw event-queue and end-to-end engine
 * throughput, plus the cost of the hot model paths (RNG draws, flow
 * re-sharing, routing).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "network/net_model.hh"
#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

/** Schedule/pop cycles through a queue preloaded with n events. */
void
BM_EventQueueChurn(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    Simulator sim;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    Tick t = 1;
    for (int i = 0; i < depth; ++i) {
        events.push_back(
            std::make_unique<EventFunctionWrapper>([] {}, "bm"));
        sim.schedule(*events.back(), t++);
    }
    std::size_t idx = 0;
    for (auto _ : state) {
        Event &ev = sim.eventQueue().pop();
        (void)ev;
        sim.eventQueue().schedule(*events[idx % events.size()], t++);
        ++idx;
    }
    // Drain before the events are destroyed.
    while (!sim.eventQueue().empty())
        sim.eventQueue().pop();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(4096)->Arg(262144);

/** Self-rescheduling event chain: pure engine dispatch rate. */
void
BM_EngineDispatch(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim;
        std::uint64_t count = 0;
        EventFunctionWrapper tick(
            [&] {
                if (++count < 1'000'000)
                    sim.scheduleAfter(tick, 1);
            },
            "tick");
        sim.schedule(tick, 0);
        state.ResumeTiming();
        sim.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_EngineDispatch)->Unit(benchmark::kMillisecond);

void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(1, "bm");
    double acc = 0.0;
    for (auto _ : state)
        acc += rng.exponential(1.0);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void
BM_FatTreeRouting(benchmark::State &state)
{
    auto topo = Topology::fatTree(8, 1e9, 5 * usec);
    StaticRouting routing(topo);
    std::uint64_t key = 0;
    for (auto _ : state) {
        auto r = routing.route(topo.serverNode(key % 128),
                               topo.serverNode((key * 7 + 3) % 128),
                               key);
        benchmark::DoNotOptimize(r.links.data());
        ++key;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FatTreeRouting);

/** Cost of max-min re-sharing with n concurrent flows. */
void
BM_FlowReshare(benchmark::State &state)
{
    const int flows = static_cast<int>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        Simulator sim;
        auto topo = Topology::fatTree(4, 1e9, 5 * usec);
        StaticRouting routing(topo);
        NetModel mgr(sim, topo);
        state.ResumeTiming();
        for (int i = 0; i < flows; ++i) {
            auto route = routing.route(
                topo.serverNode(i % 16),
                topo.serverNode((i * 5 + 3) % 16), i);
            mgr.startFlow(std::move(route), 1'000'000, [] {});
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowReshare)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
