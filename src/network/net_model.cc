#include "net_model.hh"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace holdcsim {

const char *
toString(NetModelKind kind)
{
    switch (kind) {
      case NetModelKind::exact:
        return "exact";
      case NetModelKind::fluid:
        return "fluid";
    }
    return "?";
}

NetModelKind
parseNetModelKind(const std::string &s)
{
    if (s == "exact")
        return NetModelKind::exact;
    if (s == "fluid")
        return NetModelKind::fluid;
    fatal("unknown network model '", s, "' (expected exact or fluid)");
}

Tick
fastPathDuration(const Topology &topo, const Route &route, Bytes bytes)
{
    Tick latency = 0;
    BitsPerSec bottleneck = std::numeric_limits<BitsPerSec>::infinity();
    for (LinkId l : route.links) {
        const LinkInfo &li = topo.link(l);
        latency += li.latency;
        bottleneck = std::min(bottleneck, li.rate);
    }
    if (route.links.empty() || bytes == 0)
        return latency;
    return latency + serializationDelay(bytes, bottleneck);
}

NetModel::NetModel(Simulator &sim, const Topology &topo,
                   const NetModelConfig &cfg)
    : _sim(sim), _topo(topo), _cfg(cfg),
      _linkFlows(2 * topo.numLinks()),
      _linkEpoch(2 * topo.numLinks(), 0),
      _capLeft(2 * topo.numLinks()),
      _usersLeft(2 * topo.numLinks()),
      _isBottleneck(2 * topo.numLinks(), 0)
{}

NetModel::~NetModel()
{
    for (auto &[id, flow] : _flows) {
        if (flow.completion && flow.completion->scheduled())
            _sim.deschedule(*flow.completion);
        if (flow.activation && flow.activation->scheduled())
            _sim.deschedule(*flow.activation);
    }
}

TraceManager *
NetModel::flowTracer()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::flow))
        return nullptr;
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("network", "flows");
    return tr;
}

FlowId
NetModel::startFlow(Route route, Bytes bytes, FlowDoneFn on_done,
                    Tick start_delay)
{
    FlowId id = _nextId++;
    Flow &flow = _flows.emplace_hint(_flows.end(), id, Flow{})->second;
    flow.id = id;
    flow.remainingBits = static_cast<double>(bytes) * 8.0;
    flow.onDone = std::move(on_done);
    flow.startedAt = _sim.curTick();

    // Record the traversal direction on every hop.
    for (std::size_t i = 0; i < route.links.size(); ++i) {
        LinkId l = route.links[i];
        bool forward = _topo.link(l).a == route.nodes[i];
        flow.pathIdx.push_back(l * 2 + (forward ? 1 : 0));
    }
    flow.linkPos.resize(flow.pathIdx.size());

    flow.completion = std::make_unique<EventFunctionWrapper>(
        [this, id] { finish(id); }, "flow.completion");
    if (TraceManager *tr = flowTracer()) {
        tr->asyncBegin(_traceTrack, TraceCategory::flow, "flow", id,
                       _sim.curTick());
    }

    // Constant-latency fast path: a short transfer never contends
    // for bandwidth -- it completes analytically after the path
    // latency plus serialization at the bottleneck link rate.
    if (_cfg.fastPathBytes > 0 && bytes <= _cfg.fastPathBytes &&
        !route.links.empty()) {
        ++_solverStats.fastPathHits;
        _sim.scheduleAfter(*flow.completion,
                           start_delay +
                               fastPathDuration(_topo, route, bytes));
        return id;
    }

    flow.activation = std::make_unique<EventFunctionWrapper>(
        [this, id] { activate(id); }, "flow.activation");
    _sim.scheduleAfter(*flow.activation, start_delay);
    return id;
}

void
NetModel::enroll(Flow &flow)
{
    for (std::size_t i = 0; i < flow.pathIdx.size(); ++i) {
        auto &members = _linkFlows[flow.pathIdx[i]];
        flow.linkPos[i] = static_cast<std::uint32_t>(members.size());
        members.push_back(&flow);
    }
}

void
NetModel::unenroll(Flow &flow)
{
    for (std::size_t i = 0; i < flow.pathIdx.size(); ++i) {
        std::uint32_t dl = flow.pathIdx[i];
        // The freed bandwidth can only move flows reachable from
        // this link.
        _seedLinks.push_back(dl);
        auto &members = _linkFlows[dl];
        std::uint32_t pos = flow.linkPos[i];
        Flow *moved = members.back();
        members[pos] = moved;
        members.pop_back();
        if (moved == &flow)
            continue;
        // Tell the flow that slid into our slot where it now lives.
        // Shortest-path routes never repeat a directed link, so the
        // first match is the right hop.
        for (std::size_t j = 0; j < moved->pathIdx.size(); ++j) {
            if (moved->pathIdx[j] == dl) {
                moved->linkPos[j] = pos;
                break;
            }
        }
    }
}

void
NetModel::activate(FlowId id)
{
    auto it = _flows.find(id);
    if (it == _flows.end())
        HOLDCSIM_PANIC("activation of unknown flow ", id);
    Flow &flow = it->second;
    if (flow.pathIdx.empty() || flow.remainingBits <= 0.0) {
        // Local or empty transfer: complete immediately.
        finish(id);
        return;
    }
    flow.active = true;
    flow.lastUpdate = _sim.curTick();
    enroll(flow);
    if (_bulk)
        return; // endBulkLoad() solves once for everyone
    _seedLinks.insert(_seedLinks.end(), flow.pathIdx.begin(),
                      flow.pathIdx.end());
    resolve();
}

void
NetModel::finish(FlowId id)
{
    auto it = _flows.find(id);
    if (it == _flows.end())
        HOLDCSIM_PANIC("completion of unknown flow ", id);
    Flow &flow = it->second;
    bool was_active = flow.active;
    FlowDoneFn done = std::move(flow.onDone);
    _flowLatency.sample(toSeconds(_sim.curTick() - flow.startedAt));
    ++_flowsCompleted;
    if (TraceManager *tr = flowTracer()) {
        tr->asyncEnd(_traceTrack, TraceCategory::flow, "flow", id,
                     _sim.curTick());
    }
    if (was_active)
        unenroll(flow);
    _flows.erase(it);
    if (was_active)
        resolve();
    if (done)
        done();
}

void
NetModel::endBulkLoad()
{
    _bulk = false;
    for (std::uint32_t dl = 0; dl < _linkFlows.size(); ++dl) {
        if (!_linkFlows[dl].empty())
            _seedLinks.push_back(dl);
    }
    resolve();
}

void
NetModel::markLink(std::uint32_t dl)
{
    if (_linkEpoch[dl] == _epoch)
        return;
    _linkEpoch[dl] = _epoch;
    _dirtyLinks.push_back(dl);
    _capLeft[dl] = _topo.link(dl / 2).rate;
    _usersLeft[dl] = 0;
}

void
NetModel::markDirty(Flow &flow, Tick now)
{
    // Settle the bits moved at the old rate, which is about to
    // change. Clean flows keep progressing linearly at their
    // unchanged rates, so their books stay correct untouched.
    double transferred = flow.rate * toSeconds(now - flow.lastUpdate);
    flow.remainingBits = std::max(0.0, flow.remainingBits - transferred);
    flow.lastUpdate = now;
    _dirtyFlows.push_back(&flow);
    for (std::uint32_t dl : flow.pathIdx) {
        markLink(dl);
        ++_usersLeft[dl];
    }
}

void
NetModel::abortSolve(const std::string &what)
{
    // The solver wedged: an internal inconsistency, not a user
    // error. Name the flows and links still in play so the
    // post-mortem pinpoints the offending state, then hand the
    // run to the campaign quarantine machinery.
    std::ostringstream detail;
    detail << what << "; " << _unfrozen.size()
           << " unfrozen flow(s):";
    std::size_t shown = 0;
    for (Flow *flow : _unfrozen) {
        if (++shown > 4) {
            detail << " ...";
            break;
        }
        detail << " flow " << flow->id << " links[";
        for (std::size_t i = 0; i < flow->pathIdx.size(); ++i) {
            std::uint32_t dl = flow->pathIdx[i];
            detail << (i ? " " : "") << dl / 2
                   << (dl & 1 ? "f" : "r") << ":cap="
                   << _capLeft[dl] << "/users=" << _usersLeft[dl];
        }
        detail << "]";
    }
    std::string reason = detail.str();
    _sim.abortDump(std::cerr, reason);
    throw SimAbortError(reason);
}

void
NetModel::resolve()
{
    // 1: collect and settle the dirty set. Epoch marks make link
    // visits O(1) with no clearing pass.
    ++_epoch;
    _dirtyLinks.clear();
    _dirtyFlows.clear();
    Tick now = _sim.curTick();
    if (_cfg.kind == NetModelKind::exact) {
        // The whole fabric is dirty: every active flow, in FlowId
        // order, which also orders the rescheduled completions.
        for (auto &[id, flow] : _flows) {
            if (flow.active)
                markDirty(flow, now);
        }
    } else {
        // Expand the changed links to the full connected component
        // over the membership lists (dirty link -> its flows are
        // dirty; dirty flow -> its links are dirty).
        if (_seedLinks.empty())
            return;
        for (std::uint32_t dl : _seedLinks)
            markLink(dl);
        for (std::size_t i = 0; i < _dirtyLinks.size(); ++i) {
            for (Flow *f : _linkFlows[_dirtyLinks[i]]) {
                if (f->visitEpoch == _epoch)
                    continue;
                f->visitEpoch = _epoch;
                markDirty(*f, now);
            }
        }
    }
    _seedLinks.clear();

    ++_solverStats.resolves;
    _solverStats.resolvedFlows += _dirtyFlows.size();
    _solverStats.dirtyLinks += _dirtyLinks.size();
    _solverStats.maxDirtyFlows = std::max(
        _solverStats.maxDirtyFlows,
        static_cast<std::uint64_t>(_dirtyFlows.size()));

    // 2: progressive filling over the dirty set: repeatedly saturate
    // the most contended directed link and freeze its flows at the
    // bottleneck share. Every active flow on a dirty link is dirty,
    // so the restricted problem is self-contained and its solution
    // equals the global max-min allocation on these flows. All
    // per-link state lives in dense vectors indexed by directed
    // link; only the dirty entries are initialized and scanned.
    _unfrozen = _dirtyFlows;
    while (!_unfrozen.empty()) {
        double best_share = std::numeric_limits<double>::infinity();
        for (std::uint32_t dl : _dirtyLinks) {
            if (_usersLeft[dl] == 0)
                continue;
            double share = _capLeft[dl] / _usersLeft[dl];
            best_share = std::min(best_share, share);
        }
        if (!std::isfinite(best_share))
            abortSolve("flow solve found no bottleneck");

        // Snapshot the bottleneck link set for this round *before*
        // freezing anything: freezing a flow debits the links it
        // crosses, and comparing later flows against those mutated
        // shares mis-classifies links that were epsilon-tied at the
        // round's start (flows frozen above or below their true
        // max-min rate). The snapshot also makes the allocation
        // independent of flow and link order.
        double tolerance = 1e-9 * std::max(1.0, best_share);
        for (std::uint32_t dl : _dirtyLinks) {
            _isBottleneck[dl] =
                _usersLeft[dl] > 0 &&
                _capLeft[dl] / _usersLeft[dl] <=
                    best_share + tolerance;
        }

        // Freeze every flow crossing a bottleneck link at that share.
        std::size_t kept = 0;
        for (Flow *flow : _unfrozen) {
            bool frozen = false;
            for (std::uint32_t dl : flow->pathIdx) {
                if (_isBottleneck[dl]) {
                    frozen = true;
                    break;
                }
            }
            if (frozen) {
                flow->rate = best_share;
                for (std::uint32_t dl : flow->pathIdx) {
                    _capLeft[dl] =
                        std::max(0.0, _capLeft[dl] - best_share);
                    --_usersLeft[dl];
                }
            } else {
                _unfrozen[kept++] = flow;
            }
        }
        if (kept == _unfrozen.size()) {
            _unfrozen.resize(kept);
            abortSolve(detail::format(
                "flow solve made no progress at share ", best_share));
        }
        _unfrozen.resize(kept);
    }

    // 3: reschedule completions for the dirty flows, in dirty-set
    // order (which breaks same-tick ties).
    for (Flow *f : _dirtyFlows) {
        if (f->completion->scheduled())
            _sim.deschedule(*f->completion);
        if (f->rate <= 0.0)
            HOLDCSIM_PANIC("active flow ", f->id, " got zero rate");
        double seconds = f->remainingBits / f->rate;
        Tick eta = fromSeconds(seconds);
        _sim.schedule(*f->completion, now + (eta > 0 ? eta : 1));
    }
}

bool
NetModel::abortFlow(FlowId flow_id)
{
    auto it = _flows.find(flow_id);
    if (it == _flows.end())
        return false;
    Flow &f = it->second;
    bool was_active = f.active;
    FlowDoneFn aborted = std::move(f.onAbort);
    if (f.completion && f.completion->scheduled())
        _sim.deschedule(*f.completion);
    if (f.activation && f.activation->scheduled())
        _sim.deschedule(*f.activation);
    if (was_active)
        unenroll(f);
    _flows.erase(it);
    ++_flowsAborted;
    if (TraceManager *tr = flowTracer()) {
        tr->instant(_traceTrack, TraceCategory::flow, "flow.abort",
                    _sim.curTick());
        tr->asyncEnd(_traceTrack, TraceCategory::flow, "flow",
                     flow_id, _sim.curTick());
    }
    if (was_active)
        resolve(); // survivors inherit the freed bandwidth
    if (aborted)
        aborted();
    return true;
}

std::size_t
NetModel::abortFlowsOn(LinkId l)
{
    // A full scan in FlowId order: pending and fast-path flows are
    // not enrolled, and this only runs on fault events, never on the
    // churn hot path.
    std::vector<FlowId> doomed;
    for (const auto &[id, flow] : _flows) {
        for (std::uint32_t dl : flow.pathIdx) {
            if (dl / 2 == l) {
                doomed.push_back(id);
                break;
            }
        }
    }
    for (FlowId id : doomed)
        abortFlow(id);
    return doomed.size();
}

void
NetModel::setAbortCallback(FlowId flow, FlowDoneFn on_abort)
{
    auto it = _flows.find(flow);
    if (it == _flows.end())
        HOLDCSIM_PANIC("abort callback for unknown flow ", flow);
    it->second.onAbort = std::move(on_abort);
}

BitsPerSec
NetModel::flowRate(FlowId flow) const
{
    auto it = _flows.find(flow);
    if (it == _flows.end() || !it->second.active)
        return 0.0;
    return it->second.rate;
}

double
NetModel::linkUtilization(LinkId l) const
{
    double fwd = 0.0, rev = 0.0;
    for (const Flow *f : _linkFlows[2 * l + 1])
        fwd += f->rate;
    for (const Flow *f : _linkFlows[2 * l])
        rev += f->rate;
    return std::max(fwd, rev) / _topo.link(l).rate;
}

} // namespace holdcsim
