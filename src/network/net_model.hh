/**
 * @file
 * Flow-based communication (paper section III-B): dependent tasks
 * exchange data as flows that share link bandwidth max-min fairly.
 *
 * "Multiple flows or packets can simultaneously travel along a link
 * if it has not yet been saturated" -- whenever a flow starts or
 * finishes, NetModel re-solves the max-min fair allocation of a
 * *dirty set* of flows by progressive filling and reschedules their
 * completion events. The two model tiers (`[network] model =
 * exact|fluid`) differ only in which flows are dirty:
 *
 *  - exact: every active flow, in FlowId order. The whole fabric is
 *           re-solved on every change.
 *  - fluid: the connected component that a walk over per-link
 *           membership lists reaches from the changed links, after
 *           SimGrid's surf layer (lazy partial invalidation). The
 *           max-min allocation decomposes over the components of the
 *           "shares a link" relation, so a change can only move the
 *           rates of flows reachable from it through shared links.
 *           Clean flows keep progressing linearly at their unchanged
 *           rates, and an update costs O(component size) instead of
 *           O(population).
 *
 * Both tiers compute the same allocation. Because fluid settles and
 * re-solves only the dirty component, its completion ticks can drift
 * from exact's by floating-point rounding (at most a couple of
 * ticks), so the tier is a choice of behaviour, not a speed switch.
 *
 * In both tiers, transfers of at most `fastPathBytes` never enter the
 * solver: they complete after path latency plus serialization at the
 * bottleneck link rate (constant-latency model, SimGrid's
 * network_constant).
 */

#ifndef HOLDCSIM_NETWORK_NET_MODEL_HH
#define HOLDCSIM_NETWORK_NET_MODEL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "network/routing.hh"
#include "network/topology.hh"
#include "sim/event.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "telemetry/trace_manager.hh"

namespace holdcsim {

/** Identifier of an in-flight flow. */
using FlowId = std::uint64_t;

/** Selectable flow-level network model tier. */
enum class NetModelKind { exact, fluid };

/** Canonical config-file spelling of @p kind. */
const char *toString(NetModelKind kind);

/** Parse "exact" | "fluid"; throws FatalError otherwise. */
NetModelKind parseNetModelKind(const std::string &s);

/** Flow-model selection and tuning. */
struct NetModelConfig {
    NetModelKind kind = NetModelKind::exact;
    /**
     * Transfers of at most this many bytes bypass the solver and
     * complete analytically. 0 disables the fast path.
     */
    Bytes fastPathBytes = 0;
};

/**
 * Solver cost counters, surfaced as `network.solver_*` stats so the
 * model tiers can be compared on the same run.
 */
struct NetSolverStats {
    /** Bandwidth-share solver invocations. */
    std::uint64_t resolves = 0;
    /** Flows whose rate was recomputed, summed over all resolves. */
    std::uint64_t resolvedFlows = 0;
    /** Directed links visited by the solver, summed. */
    std::uint64_t dirtyLinks = 0;
    /** Largest single resolve, in flows (dirty-set high-water). */
    std::uint64_t maxDirtyFlows = 0;
    /** Transfers completed analytically, never entering the solver. */
    std::uint64_t fastPathHits = 0;

    /** Mean dirty-set size per resolve (the invalidation win). */
    double
    meanDirtyFlows() const
    {
        return resolves == 0
                   ? 0.0
                   : static_cast<double>(resolvedFlows) /
                         static_cast<double>(resolves);
    }
};

/**
 * Analytic completion time of a fast-path transfer along @p route:
 * the sum of per-hop propagation latencies plus serialization of
 * @p bytes at the slowest link on the path.
 */
Tick fastPathDuration(const Topology &topo, const Route &route,
                      Bytes bytes);

/** Max-min fair flow model over a topology. */
class NetModel
{
  public:
    using FlowDoneFn = std::function<void()>;

    NetModel(Simulator &sim, const Topology &topo,
             const NetModelConfig &cfg = {});
    ~NetModel();
    NetModel(const NetModel &) = delete;
    NetModel &operator=(const NetModel &) = delete;

    /**
     * Start a flow of @p bytes along @p route. The flow joins the
     * bandwidth competition after @p start_delay (switch wake time)
     * and @p on_done fires when the last byte is delivered.
     * A zero-hop route (local communication) completes after
     * start_delay alone.
     */
    FlowId startFlow(Route route, Bytes bytes, FlowDoneFn on_done,
                     Tick start_delay = 0);

    /**
     * Abort flow @p flow: its completion never fires and its abort
     * callback (if set) is invoked. Returns whether the flow existed.
     */
    bool abortFlow(FlowId flow);

    /**
     * Abort every flow (active, pending or fast-path) whose route
     * traverses link @p l -- the link just failed. Returns how many
     * died.
     */
    std::size_t abortFlowsOn(LinkId l);

    /** Register the abort callback for flow @p flow. */
    void setAbortCallback(FlowId flow, FlowDoneFn on_abort);

    /** Number of flows currently transferring or pending start. */
    std::size_t activeFlows() const { return _flows.size(); }

    /** Current fair-share rate of @p flow (0 if pending/unknown). */
    BitsPerSec flowRate(FlowId flow) const;

    /**
     * Current utilization of link @p l in [0, 1]: the busier
     * direction's allocated share over capacity.
     */
    double linkUtilization(LinkId l) const;

    /**
     * @name Bulk load (warm-start)
     * Between beginBulkLoad() and endBulkLoad(), flow activations
     * skip the per-change re-solve; endBulkLoad() settles and
     * re-solves once. Intended for installing a large standing flow
     * population at a single simulated instant (benchmarks, campaign
     * warm starts): when no simulated time elapses inside the bulk
     * window the resulting rates are identical to per-flow
     * activation, at O(population) instead of O(population^2) cost.
     */
    ///@{
    void beginBulkLoad() { _bulk = true; }
    void endBulkLoad();
    ///@}

    /** Completed-flow count and transfer-latency statistics. */
    std::uint64_t flowsCompleted() const { return _flowsCompleted; }
    /** Flows killed by faults/cancellation. */
    std::uint64_t flowsAborted() const { return _flowsAborted; }
    const Percentile &flowLatency() const { return _flowLatency; }

    /** Solver cost counters (resolves, dirty sets, fast-path hits). */
    const NetSolverStats &solverStats() const { return _solverStats; }

  private:
    struct Flow {
        FlowId id;
        /** Dense directed-link indices (link * 2 + forward). */
        std::vector<std::uint32_t> pathIdx;
        /** This flow's slot in _linkFlows[pathIdx[i]] while active. */
        std::vector<std::uint32_t> linkPos;
        double remainingBits = 0.0;
        BitsPerSec rate = 0.0;
        Tick lastUpdate = 0;
        Tick startedAt = 0;
        bool active = false;
        /** Dirty-set visit mark (epoch counter, never cleared). */
        std::uint64_t visitEpoch = 0;
        FlowDoneFn onDone;
        FlowDoneFn onAbort;
        std::unique_ptr<EventFunctionWrapper> completion;
        std::unique_ptr<EventFunctionWrapper> activation;
    };

    void activate(FlowId id);
    void finish(FlowId id);
    /** Tracer (and shared flows track) if flow tracing is on. */
    TraceManager *flowTracer();

    /** Insert @p flow into the membership list of every path link. */
    void enroll(Flow &flow);
    /**
     * Swap-remove @p flow from its membership lists and seed its
     * links for the next resolve().
     */
    void unenroll(Flow &flow);
    /** Add @p dl to the dirty links and reset its solver state. */
    void markLink(std::uint32_t dl);
    /**
     * Settle @p flow to @p now and add it, with its links, to the
     * dirty set.
     */
    void markDirty(Flow &flow, Tick now);

    /**
     * Re-solve the dirty set: collect and settle it (per tier),
     * water-fill, reschedule. Clears _seedLinks.
     */
    void resolve();
    /** Structured post-mortem + SimAbortError (solver got stuck). */
    [[noreturn]] void abortSolve(const std::string &what);

    Simulator &_sim;
    const Topology &_topo;
    const NetModelConfig _cfg;
    /** Ordered by id: the exact tier re-solves in FlowId order. */
    std::map<FlowId, Flow> _flows;
    FlowId _nextId = 0;
    /** Inside a beginBulkLoad()/endBulkLoad() window. */
    bool _bulk = false;

    /** Active flows crossing each directed link (swap-removal). */
    std::vector<std::vector<Flow *>> _linkFlows;

    /** @name resolve() scratch (epoch-marked, never cleared) */
    ///@{
    std::uint64_t _epoch = 0;
    std::vector<std::uint64_t> _linkEpoch; // per directed link
    std::vector<std::uint32_t> _seedLinks; // changed links, may repeat
    std::vector<std::uint32_t> _dirtyLinks;
    std::vector<Flow *> _dirtyFlows;
    std::vector<double> _capLeft;
    std::vector<unsigned> _usersLeft;
    std::vector<std::uint8_t> _isBottleneck;
    std::vector<Flow *> _unfrozen;
    ///@}

    std::uint64_t _flowsCompleted = 0;
    std::uint64_t _flowsAborted = 0;
    Percentile _flowLatency;
    NetSolverStats _solverStats;

    TraceTrackId _traceTrack = noTraceTrack;
};

} // namespace holdcsim

#endif // HOLDCSIM_NETWORK_NET_MODEL_HH
