/**
 * @file
 * Differential tests for the selectable network-model tiers
 * (`[network] model = exact | fluid`).
 *
 * The contract under test:
 *
 *  - fluid vs exact: identical max-min allocations, so flow
 *    completion ticks agree within floating-point rounding. The
 *    fluid tier settles only the dirty component at each change
 *    while the exact tier settles every flow, so `remainingBits`
 *    accumulates through a different sequence of double additions;
 *    the divergence is bounded by ulp-level relative error. We
 *    assert agreement within 2 ticks + 1e-6 relative -- orders of
 *    magnitude looser than the observed drift, orders tighter than
 *    any behavioral difference.
 *
 *  - golden digests: each tier, with and without the fast path,
 *    reproduces the completion ticks and solver counters recorded
 *    from the separate exact and fluid solvers that NetModel
 *    replaced, bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "network/net_model.hh"
#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace holdcsim;

namespace {

constexpr Tick lat = 5 * usec;

std::unique_ptr<NetModel>
makeBackend(Simulator &sim, const Topology &topo, NetModelKind kind,
            Bytes fast_path = 0)
{
    NetModelConfig cfg;
    cfg.kind = kind;
    cfg.fastPathBytes = fast_path;
    return std::make_unique<NetModel>(sim, topo, cfg);
}

/**
 * Random connected topology: a random tree over 2-5 switches with a
 * few redundant switch-switch links, 4-10 servers attached to random
 * switches, and link rates drawn from {0.5, 1, 2, 4} Gb/s so the
 * water filling runs multiple freeze rounds.
 */
Topology
randomTopology(Rng &rng)
{
    Topology topo;
    const unsigned n_sw = 2 + rng.uniformInt(0, 3);
    const unsigned n_srv = 4 + rng.uniformInt(0, 6);
    const double rates[] = {0.5e9, 1e9, 2e9, 4e9};
    auto rate = [&] { return rates[rng.uniformInt(0, 3)]; };

    std::vector<NodeId> sw;
    for (unsigned i = 0; i < n_sw; ++i)
        sw.push_back(topo.addSwitch());
    for (unsigned i = 1; i < n_sw; ++i)
        topo.addLink(sw[rng.uniformInt(0, i - 1)], sw[i], rate(), lat);
    // Redundant trunks exercise ECMP route diversity.
    for (unsigned i = 0; i + 1 < n_sw && i < 2; ++i) {
        unsigned a = rng.uniformInt(0, n_sw - 1);
        unsigned b = rng.uniformInt(0, n_sw - 2);
        if (b >= a)
            ++b;
        topo.addLink(sw[a], sw[b], rate(), lat);
    }
    for (unsigned i = 0; i < n_srv; ++i) {
        NodeId s = topo.addServer();
        topo.addLink(s, sw[rng.uniformInt(0, n_sw - 1)], rate(), lat);
    }
    return topo;
}

/** One scripted flow: start, size, optional abort. */
struct FlowOp {
    Tick startAt;
    Route route;
    Bytes bytes;
    Tick abortAt; // 0 = never
};

/**
 * Random churn script over @p topo: flows start within 50 ms, are
 * large enough (>= 10 MB) that none completes before 5 ms, and a
 * third are aborted within (start, start + 4 ms] -- safely before
 * any completion, so abort/complete ordering cannot differ between
 * backends inside the comparison tolerance.
 */
std::vector<FlowOp>
randomScript(const Topology &topo, Rng &rng, std::size_t n_flows)
{
    StaticRouting routing(topo);
    std::vector<FlowOp> script;
    for (std::size_t i = 0; i < n_flows; ++i) {
        FlowOp op;
        std::size_t src = rng.uniformInt(0, topo.numServers() - 1);
        std::size_t dst = rng.uniformInt(0, topo.numServers() - 2);
        if (dst >= src)
            ++dst;
        op.route = routing.route(topo.serverNode(src),
                                 topo.serverNode(dst), i);
        op.bytes = 10'000'000 + 1'000'000 * rng.uniformInt(0, 40);
        op.startAt = rng.uniformInt(0, 50) * msec;
        op.abortAt = rng.uniformInt(0, 2) == 0
                         ? op.startAt + rng.uniformInt(1, 4) * msec
                         : 0;
        script.push_back(op);
    }
    return script;
}

struct RunResult {
    std::vector<Tick> doneAt;  // maxTick when never completed
    std::vector<char> aborted;
    NetSolverStats stats;
    std::uint64_t completed = 0;
};

/** Replay @p script under one backend and record completions. */
RunResult
runScript(const Topology &topo, const std::vector<FlowOp> &script,
          NetModelKind kind, Bytes fast_path = 0)
{
    Simulator sim;
    auto model = makeBackend(sim, topo, kind, fast_path);
    RunResult res;
    res.doneAt.assign(script.size(), maxTick);
    res.aborted.assign(script.size(), 0);

    std::vector<FlowId> ids(script.size(), 0);
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    for (std::size_t i = 0; i < script.size(); ++i) {
        const FlowOp &op = script[i];
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&, i] {
                ids[i] = model->startFlow(
                    script[i].route, script[i].bytes,
                    [&res, i, &sim] { res.doneAt[i] = sim.curTick(); });
                model->setAbortCallback(
                    ids[i], [&res, i] { res.aborted[i] = 1; });
            },
            "start"));
        sim.schedule(*events.back(), op.startAt);
        if (op.abortAt != 0) {
            events.push_back(std::make_unique<EventFunctionWrapper>(
                [&, i] { model->abortFlow(ids[i]); }, "abort"));
            sim.schedule(*events.back(), op.abortAt);
        }
    }
    sim.run();
    res.stats = model->solverStats();
    res.completed = model->flowsCompleted();
    return res;
}

} // namespace

// ------------------------------------------------- differential equivalence

class ModelEquivalence : public ::testing::TestWithParam<std::uint64_t>
{};

/**
 * fluid completion ticks match exact within the documented
 * floating-point tolerance on random topologies under random churn.
 */
TEST_P(ModelEquivalence, FluidMatchesExactWithinTolerance)
{
    Rng rng(GetParam());
    Topology topo = randomTopology(rng);
    auto script = randomScript(topo, rng, 24);

    RunResult exact = runScript(topo, script, NetModelKind::exact);
    RunResult fluid = runScript(topo, script, NetModelKind::fluid);

    ASSERT_EQ(exact.completed, fluid.completed);
    for (std::size_t i = 0; i < script.size(); ++i) {
        SCOPED_TRACE("flow " + std::to_string(i));
        ASSERT_EQ(exact.aborted[i], fluid.aborted[i]);
        if (exact.doneAt[i] == maxTick) {
            EXPECT_EQ(fluid.doneAt[i], maxTick);
            continue;
        }
        // Documented tolerance: 2 ticks absolute + 1e-6 relative
        // (see file header).
        double tol =
            2.0 + 1e-6 * static_cast<double>(exact.doneAt[i]);
        EXPECT_NEAR(static_cast<double>(exact.doneAt[i]),
                    static_cast<double>(fluid.doneAt[i]), tol);
    }
    // The fluid model must not have solved *more* flow-updates than
    // the global model (it re-solves a subset per change).
    EXPECT_LE(fluid.stats.resolvedFlows, exact.stats.resolvedFlows);
}

namespace {

/**
 * FNV-1a over the text of everything a run observably produced:
 * completion ticks, abort marks, the completion count and all five
 * solver counters.
 */
std::uint64_t
runDigest(const RunResult &r)
{
    std::ostringstream os;
    for (Tick t : r.doneAt)
        os << t << ' ';
    for (char a : r.aborted)
        os << static_cast<int>(a);
    os << ' ' << r.completed << ' ' << r.stats.resolves << ' '
       << r.stats.resolvedFlows << ' ' << r.stats.dirtyLinks << ' '
       << r.stats.maxDirtyFlows << ' ' << r.stats.fastPathHits;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : os.str()) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct GoldenDigests {
    std::uint64_t seed;
    std::uint64_t exact;
    std::uint64_t fluid;
    std::uint64_t fluidFast64k;
    /** Fast path at 16 MB: some of the 10-50 MB flows take it. */
    std::uint64_t exactFast16m;
    std::uint64_t fluidFast16m;
};

/**
 * Recorded from the two solvers NetModel replaced (the exact tier at
 * 16 MB from the old exact-plus-fast-path tier). The 64 KiB fast path
 * never fires on these >= 10 MB flows, so it must match plain fluid.
 */
constexpr GoldenDigests goldens[] = {
    {1, 0xea4a1286283fad7eULL, 0xea548033ac8634deULL,
     0xea548033ac8634deULL, 0x3b6a366acc90f7ddULL,
     0x29c5817ee0853d65ULL},
    {2, 0xc2cc66a8b45f3457ULL, 0xb5b349c48286af0dULL,
     0xb5b349c48286af0dULL, 0xb337110078cd971dULL,
     0xfff2e77413ace412ULL},
    {3, 0x04ad01aca4aafd53ULL, 0x0e5357251bd00ed6ULL,
     0x0e5357251bd00ed6ULL, 0xd08cfd3ab0314fe2ULL,
     0x96658a0b732e68e4ULL},
    {4, 0xf081a809accd2539ULL, 0x5fa17d991b04af11ULL,
     0x5fa17d991b04af11ULL, 0x3e9f0c2ffb2b0ceeULL,
     0xf73aee87f62dd9e3ULL},
    {5, 0xc6f8c538330b5c36ULL, 0xe7053db8820f3856ULL,
     0xe7053db8820f3856ULL, 0x7dd27e2ba50d4d0bULL,
     0x241a0a378b3c0dd1ULL},
    {6, 0x2d7b0811ab4e2edeULL, 0x2e16f6967de90895ULL,
     0x2e16f6967de90895ULL, 0x0cbced18ce04c886ULL,
     0x9d99eb5c79df4dffULL},
    {7, 0x464983bd0bb9d19cULL, 0xa89711d1d7f3995fULL,
     0xa89711d1d7f3995fULL, 0x14be6d0d877a4438ULL,
     0x6339b6bd8459a5d9ULL},
    {8, 0x0b0fec9822898801ULL, 0xed9f6a23b07e120eULL,
     0xed9f6a23b07e120eULL, 0x5ee1ed31b5c2320bULL,
     0x86b91247b5a99ff2ULL},
};

} // namespace

/** Both tiers reproduce their recorded runs bit for bit. */
TEST_P(ModelEquivalence, MatchesGoldenDigests)
{
    const GoldenDigests &g = goldens[GetParam() - 1];
    ASSERT_EQ(g.seed, GetParam());
    Rng rng(GetParam());
    Topology topo = randomTopology(rng);
    auto script = randomScript(topo, rng, 24);

    auto digest = [&](NetModelKind kind, Bytes fast_path) {
        return runDigest(runScript(topo, script, kind, fast_path));
    };
    EXPECT_EQ(digest(NetModelKind::exact, 0), g.exact);
    EXPECT_EQ(digest(NetModelKind::fluid, 0), g.fluid);
    EXPECT_EQ(digest(NetModelKind::fluid, 64 * 1024), g.fluidFast64k);
    EXPECT_EQ(digest(NetModelKind::exact, 16'000'000), g.exactFast16m);
    EXPECT_EQ(digest(NetModelKind::fluid, 16'000'000), g.fluidFast16m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

/**
 * Equal flows into one server's downlink finish on the same tick; the
 * order in which each tier reschedules completions breaks the tie.
 * Exact reschedules every active flow in FlowId order; fluid in the
 * order its walk from the last-activated flow's links finds them.
 */
TEST(SameTickCompletions, FollowEachTiersRescheduleOrder)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    for (auto [kind, expected] :
         {std::pair{NetModelKind::exact, std::vector<int>{0, 1, 2}},
          std::pair{NetModelKind::fluid, std::vector<int>{2, 0, 1}}}) {
        SCOPED_TRACE(toString(kind));
        Simulator sim;
        auto model = makeBackend(sim, topo, kind);
        std::vector<int> order;
        for (int i = 0; i < 3; ++i) {
            model->startFlow(routing.route(topo.serverNode(i),
                                           topo.serverNode(3)),
                             1'000'000, [&order, i] { order.push_back(i); });
        }
        sim.run();
        EXPECT_EQ(order, expected);
    }
}

// ------------------------------------------------------------ fast path

namespace {

/** Both tiers share fast-path semantics; test both. */
class FastPath : public ::testing::TestWithParam<NetModelKind>
{};

} // namespace

TEST_P(FastPath, ShortTransferCompletesAnalytically)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));

    Simulator sim;
    auto model = makeBackend(sim, topo, GetParam(),
                             /*fast_path=*/64 * 1024);
    const Bytes bytes = 1500;
    const Tick start_delay = 3 * usec;
    Tick done_at = 0;
    model->startFlow(r, bytes, [&] { done_at = sim.curTick(); },
                     start_delay);
    sim.run();

    EXPECT_EQ(done_at, start_delay + fastPathDuration(topo, r, bytes));
    EXPECT_EQ(model->flowsCompleted(), 1u);
    EXPECT_EQ(model->solverStats().fastPathHits, 1u);
    EXPECT_EQ(model->solverStats().resolves, 0u);
}

TEST_P(FastPath, LargeTransferStillUsesSolver)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));

    Simulator sim;
    auto model = makeBackend(sim, topo, GetParam(),
                             /*fast_path=*/1024);
    Tick done_at = 0;
    model->startFlow(r, 125'000'000,
                     [&] { done_at = sim.curTick(); });
    sim.run();

    // 1 Gb at 1 Gb/s: about one second, via the solver.
    EXPECT_NEAR(toSeconds(done_at), 1.0, 0.01);
    EXPECT_EQ(model->solverStats().fastPathHits, 0u);
    EXPECT_GE(model->solverStats().resolves, 1u);
}

INSTANTIATE_TEST_SUITE_P(Tiers, FastPath,
                         ::testing::Values(NetModelKind::exact,
                                           NetModelKind::fluid),
                         [](const auto &info) {
                             return toString(info.param);
                         });

// ----------------------------------------------------- structured aborts

namespace {

class SolverAbort : public ::testing::TestWithParam<NetModelKind>
{};

} // namespace

/**
 * An infinite-capacity link makes every share infinite: the solver
 * can find no bottleneck and must abort with a structured dump
 * naming the offending flow instead of a bare panic.
 */
TEST_P(SolverAbort, NoBottleneckAbortsWithDiagnostic)
{
    Topology topo;
    NodeId a = topo.addServer(), b = topo.addServer();
    topo.addLink(a, b, std::numeric_limits<double>::infinity(), lat);
    Route r;
    r.links = {0};
    r.nodes = {a, b};

    Simulator sim;
    auto model = makeBackend(sim, topo, GetParam());
    model->startFlow(r, 1'000'000, [] {});
    try {
        sim.run();
        FAIL() << "expected SimAbortError";
    } catch (const SimAbortError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("no bottleneck"), std::string::npos)
            << what;
        EXPECT_NE(what.find("flow 0"), std::string::npos) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, SolverAbort,
                         ::testing::Values(NetModelKind::exact,
                                           NetModelKind::fluid),
                         [](const auto &info) {
                             return toString(info.param);
                         });

// ------------------------------------------------------- fluid specifics

namespace {

struct FluidFixture : ::testing::Test {
    Simulator sim;
};

} // namespace

TEST_F(FluidFixture, BulkLoadMatchesIncrementalActivation)
{
    Topology topo = Topology::star(8, 1e9, lat);
    StaticRouting routing(topo);
    std::vector<Route> routes;
    for (std::size_t i = 0; i < 12; ++i)
        routes.push_back(routing.route(topo.serverNode(i % 8),
                                       topo.serverNode((i + 3) % 8),
                                       i));

    Simulator s_bulk;
    auto bulk_model = makeBackend(s_bulk, topo, NetModelKind::fluid);
    bulk_model->beginBulkLoad();
    std::vector<FlowId> bulk_ids;
    for (const Route &r : routes)
        bulk_ids.push_back(
            bulk_model->startFlow(r, 1'000'000'000'000, [] {}));
    s_bulk.runUntil(0); // activations fire, suppressed per-flow solve
    bulk_model->endBulkLoad();

    Simulator s_inc;
    auto inc_model = makeBackend(s_inc, topo, NetModelKind::fluid);
    std::vector<FlowId> inc_ids;
    for (const Route &r : routes)
        inc_ids.push_back(
            inc_model->startFlow(r, 1'000'000'000'000, [] {}));
    s_inc.runUntil(0);

    for (std::size_t i = 0; i < routes.size(); ++i) {
        SCOPED_TRACE("flow " + std::to_string(i));
        EXPECT_DOUBLE_EQ(bulk_model->flowRate(bulk_ids[i]),
                         inc_model->flowRate(inc_ids[i]));
    }
    // The whole point: one resolve instead of one per activation.
    EXPECT_EQ(bulk_model->solverStats().resolves, 1u);
    EXPECT_EQ(inc_model->solverStats().resolves, routes.size());
}

TEST_F(FluidFixture, LinkFailureInvalidatesTouchedComponent)
{
    // Dumbbell: s0--sw0==sw1--s1, plus s2--sw0, s3--sw1. Two flows
    // share the trunk; killing one via link failure must re-share
    // the trunk for the survivor.
    Topology topo;
    NodeId sw0 = topo.addSwitch(), sw1 = topo.addSwitch();
    NodeId s0 = topo.addServer(), s1 = topo.addServer();
    NodeId s2 = topo.addServer(), s3 = topo.addServer();
    LinkId l_s0 = topo.addLink(s0, sw0, 1e9, lat);
    topo.addLink(s1, sw1, 1e9, lat);
    LinkId l_s2 = topo.addLink(s2, sw0, 1e9, lat);
    topo.addLink(s3, sw1, 1e9, lat);
    LinkId trunk = topo.addLink(sw0, sw1, 1e9, lat);
    StaticRouting routing(topo);

    auto model = makeBackend(sim, topo, NetModelKind::fluid);
    FlowId f_a = model->startFlow(routing.route(s0, s1),
                                  1'000'000'000'000, [] {});
    FlowId f_b = model->startFlow(routing.route(s2, s3),
                                  1'000'000'000'000, [] {});
    bool b_aborted = false;
    model->setAbortCallback(f_b, [&] { b_aborted = true; });
    sim.runUntil(0);
    EXPECT_NEAR(model->flowRate(f_a), 0.5e9, 1e3);
    EXPECT_NEAR(model->flowRate(f_b), 0.5e9, 1e3);
    EXPECT_NEAR(model->linkUtilization(trunk), 1.0, 1e-6);

    // s2's access link fails: flow b dies, flow a gets the trunk.
    EXPECT_EQ(model->abortFlowsOn(l_s2), 1u);
    EXPECT_TRUE(b_aborted);
    EXPECT_EQ(model->flowsAborted(), 1u);
    EXPECT_NEAR(model->flowRate(f_a), 1e9, 1e3);
    (void)l_s0;
}

TEST_F(FluidFixture, ZeroHopRouteCompletesAfterStartDelay)
{
    Topology topo = Topology::star(4, 1e9, lat);
    auto model = makeBackend(sim, topo, NetModelKind::fluid);
    Tick done_at = maxTick;
    model->startFlow(Route{}, 1'000'000,
                     [&] { done_at = sim.curTick(); }, 7 * usec);
    sim.run();
    EXPECT_EQ(done_at, 7 * usec);
    EXPECT_EQ(model->solverStats().resolves, 0u);
}

TEST_F(FluidFixture, AbortFlowsOnKillsPendingFastPathFlows)
{
    Topology topo = Topology::star(4, 1e9, lat);
    StaticRouting routing(topo);
    Route r = routing.route(topo.serverNode(0), topo.serverNode(1));
    ASSERT_FALSE(r.links.empty());
    LinkId first = r.links.front();

    auto model = makeBackend(sim, topo, NetModelKind::fluid,
                             /*fast_path=*/64 * 1024);
    bool done = false, aborted = false;
    FlowId f =
        model->startFlow(r, 1500, [&] { done = true; }, 1 * msec);
    model->setAbortCallback(f, [&] { aborted = true; });
    sim.runUntil(0);
    EXPECT_EQ(model->abortFlowsOn(first), 1u);
    sim.run();
    EXPECT_TRUE(aborted);
    EXPECT_FALSE(done);
}

// ------------------------------------------------ config-string plumbing

TEST(NetModelKindStrings, RoundTrip)
{
    for (NetModelKind kind : {NetModelKind::exact, NetModelKind::fluid})
        EXPECT_EQ(parseNetModelKind(toString(kind)), kind);
    EXPECT_THROW(parseNetModelKind("packet"), FatalError);
    // The exact tier takes the fast path itself now.
    EXPECT_THROW(parseNetModelKind("hybrid"), FatalError);
}
