#include "global_scheduler.hh"

#include <algorithm>
#include <cmath>

#include "network/network.hh"
#include "sim/logging.hh"

namespace holdcsim {

GlobalScheduler::GlobalScheduler(Simulator &sim,
                                 std::vector<Server *> servers,
                                 std::unique_ptr<DispatchPolicy> policy,
                                 GlobalSchedulerConfig config,
                                 Network *net)
    : _sim(sim), _servers(std::move(servers)),
      _policy(std::move(policy)), _config(config), _net(net),
      _eligible(_servers.size(), true), _numEligible(_servers.size()),
      _oneShots(sim, "sched.retry")
{
    if (_servers.empty())
        fatal("global scheduler needs at least one server");
    if (!_policy)
        fatal("global scheduler needs a dispatch policy");
    for (std::size_t i = 0; i < _servers.size(); ++i) {
        if (_servers[i]->id() != i)
            fatal("server ", i, " must be configured with id ", i);
        _servers[i]->setTaskDoneCallback(
            [this](Server &srv, const TaskRef &task) {
                onTaskDone(srv, task);
            });
    }
    if (_net && _net->topology().numServers() < _servers.size())
        fatal("network topology has fewer servers than the fleet");
}

void
GlobalScheduler::setPolicy(std::unique_ptr<DispatchPolicy> policy)
{
    if (!policy)
        fatal("cannot install a null dispatch policy");
    _policy = std::move(policy);
}

void
GlobalScheduler::setRetryPolicy(const RetryPolicy &policy,
                                Rng *jitter_rng)
{
    if (policy.maxAttempts == 0)
        fatal("retry policy needs at least one attempt");
    _retry = policy;
    _retryJitter = jitter_rng;
    _retryEnabled = true;
}

void
GlobalScheduler::setTaskRouter(TaskRouteFn router, TaskClosedFn closed)
{
    _router = std::move(router);
    _taskClosed = std::move(closed);
}

void
GlobalScheduler::resumeTask(JobId job, TaskId t)
{
    RuntimeJob *rt = findJob(job);
    if (!rt)
        return; // job finished or abandoned while deferred
    if (t >= rt->tasks.size() ||
        rt->tasks[t].state != TaskState::deferred) {
        return;
    }
    --_deferredCount;
    taskReady(*rt, t);
}

void
GlobalScheduler::setEligible(std::size_t idx, bool eligible)
{
    if (_eligible.at(idx) == eligible)
        return;
    invalidateCandidateCache();
    _eligible[idx] = eligible;
    if (eligible)
        ++_numEligible;
    else
        --_numEligible;
}

double
GlobalScheduler::loadPerEligibleServer() const
{
    std::size_t eligible = numEligible();
    if (eligible == 0)
        return 0.0;
    std::size_t total = _globalQueue.size();
    for (std::size_t i = 0; i < _servers.size(); ++i) {
        if (_eligible[i])
            total += _servers[i]->load();
    }
    return static_cast<double>(total) / static_cast<double>(eligible);
}

GlobalScheduler::TaskCensus
GlobalScheduler::taskCensus() const
{
    TaskCensus c;
    c.created = _tasksCreated;
    c.finished = _tasksFinished;
    c.aborted = _tasksAborted;
    for (const RuntimeJob &rt : _slab)
        c.live += rt.remaining; // 0 in free slots
    return c;
}

void
GlobalScheduler::resetStats()
{
    _jobsSubmitted = _jobsCompleted = 0;
    _tasksDispatched = _transfersStarted = 0;
    _taskRetries = _taskTimeouts = 0;
    _transfersAborted = _jobsFailedCount = 0;
    _jobLatency.reset();
}

TaskRef
GlobalScheduler::makeRef(const RuntimeJob &rt, TaskId t) const
{
    const TaskSpec &spec = rt.job.task(t);
    TaskRef ref{rt.job.id(), t, spec.serviceTime,
                spec.computeIntensity, spec.type,
                rt.job.orchGroup()};
    // Routed placements may inflate the service time (co-location
    // interference, remote-memory latency). The exact-1.0 test keeps
    // the unrouted path bit-identical to a build without routing.
    double scale = rt.tasks[t].serviceScale;
    if (scale != 1.0) {
        ref.serviceTime = static_cast<Tick>(std::llround(
            static_cast<double>(spec.serviceTime) * scale));
    }
    return ref;
}

TraceManager *
GlobalScheduler::taskTracer()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || !tr->wants(TraceCategory::task))
        return nullptr;
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("scheduler", "tasks");
    return tr;
}

std::string
GlobalScheduler::taskName(JobId job, TaskId t)
{
    return "j" + std::to_string(job) + ".t" + std::to_string(t);
}

void
GlobalScheduler::submitJob(Job job)
{
    ++_jobsSubmitted;
    JobId id = job.id();
    if (TraceManager *tr = taskTracer()) {
        tr->instant(_traceTrack, TraceCategory::task,
                    "j" + std::to_string(id) + ".submit",
                    _sim.curTick());
    }
    const std::uint32_t slot =
        _freeSlots.empty() ? static_cast<std::uint32_t>(_slab.size())
                           : _freeSlots.back();
    if (!_jobIndex.emplace(id, slot).second)
        fatal("duplicate job id ", id);
    if (slot == _slab.size())
        _slab.emplace_back().slot = slot;
    else
        _freeSlots.pop_back();
    RuntimeJob &rt = _slab[slot];
    rt.job = std::move(job);
    const std::size_t n = rt.job.numTasks();
    rt.tasks.assign(n, TaskRecord{});
    for (TaskId t = 0; t < n; ++t)
        rt.tasks[t].pendingParents =
            static_cast<std::uint32_t>(rt.job.parents(t).size());
    rt.remaining = n;
    _tasksCreated += n;

    // Roots are ready immediately. A root's dispatch can abandon the
    // job (retry exhaustion), so stop once the slot changes hands.
    const std::uint32_t gen = rt.generation;
    const std::vector<TaskId> &roots = rt.job.rootTasks();
    for (std::size_t i = 0; rt.generation == gen && i < roots.size(); ++i)
        taskReady(rt, roots[i]);
    notifyLoadChanged();
}

GlobalScheduler::RuntimeJob *
GlobalScheduler::findJob(JobId id)
{
    auto it = _jobIndex.find(id);
    return it == _jobIndex.end() ? nullptr : &_slab[it->second];
}

void
GlobalScheduler::releaseJob(RuntimeJob &rt)
{
    _jobIndex.erase(rt.job.id());
    rt.remaining = 0;
    ++rt.generation;
    _freeSlots.push_back(rt.slot);
}

const std::vector<std::size_t> &
GlobalScheduler::candidatesFor(int type) const
{
    // Load-independent: cache per type, invalidated whenever
    // eligibility changes. Keeps dispatch O(1) amortized even for
    // >20K-server fleets (the Table I scalability claim).
    auto it = _candidateCache.find(type);
    if (it != _candidateCache.end())
        return it->second;
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < _servers.size(); ++i) {
        // Crashed servers drop out of the cached lists too; the
        // fault hooks invalidate the cache on every transition.
        if (_eligible[i] && !_servers[i]->failed() &&
            _servers[i]->servesType(type)) {
            out.push_back(i);
        }
    }
    return _candidateCache.emplace(type, std::move(out)).first->second;
}

std::vector<std::size_t>
GlobalScheduler::freeCandidatesFor(int type) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < _servers.size(); ++i) {
        if (!_eligible[i] || _servers[i]->failed() ||
            !_servers[i]->servesType(type)) {
            continue;
        }
        if (_servers[i]->load() >= _servers[i]->numCores())
            continue;
        out.push_back(i);
    }
    return out;
}

void
GlobalScheduler::taskReady(RuntimeJob &rt, TaskId t)
{
    if (_router) {
        // Orchestration routing: tagged tasks go to a container
        // replica (or wait for one); untagged tasks fall through to
        // the normal dispatch path below.
        rt.tasks[t].serviceScale = 1.0;
        TaskRoute route = _router(makeRef(rt, t));
        if (route.action == TaskRoute::Action::defer) {
            rt.tasks[t].state = TaskState::deferred;
            ++_deferredCount;
            return;
        }
        if (route.action == TaskRoute::Action::pin) {
            if (route.server >= _servers.size())
                HOLDCSIM_PANIC("task routed to unknown server ",
                               route.server);
            rt.tasks[t].serviceScale = route.serviceScale;
            if (_servers[route.server]->failed()) {
                // The replica's host crashed under us. Burn an
                // attempt and back off; by the redispatch the
                // orchestrator has rescheduled the container.
                if (_retryEnabled) {
                    ++rt.tasks[t].attempts;
                    taskAttemptFailed(rt, t);
                    return;
                }
                fatal("task routed to failed server ", route.server);
            }
            assignTask(rt, t, route.server);
            return;
        }
    }

    TaskRef ref = makeRef(rt, t);
    std::optional<std::size_t> parent;
    if (!rt.job.parents(t).empty())
        parent = static_cast<std::size_t>(
            rt.tasks[rt.job.parents(t)[0]].server);
    if (_config.useGlobalQueue) {
        // Pull model: only dispatch when a free execution unit
        // exists; otherwise park the task centrally.
        auto candidates = freeCandidatesFor(ref.type);
        if (candidates.empty()) {
            rt.tasks[t].state = TaskState::queued;
            _globalQueue.push_back(QueuedTask{rt.job.id(), t});
            return;
        }
        std::size_t target = _policy->pick(candidates, _servers,
                                           DispatchContext{ref, parent});
        assignTask(rt, t, target);
        return;
    }

    // Pick straight from the cached list; copy it only where a
    // filter must drop servers from it.
    const std::vector<std::size_t> *candidates = &candidatesFor(ref.type);
    std::vector<std::size_t> filtered;
    if (_config.antiAffinity && parent && candidates->size() > 1 &&
        std::binary_search(candidates->begin(), candidates->end(),
                           *parent)) {
        filtered = *candidates;
        filtered.erase(
            std::find(filtered.begin(), filtered.end(), *parent));
        candidates = &filtered;
    }
    if (candidates->empty()) {
        // Eligibility filtered everything out: fall back to any
        // healthy type-capable server rather than deadlock.
        for (std::size_t i = 0; i < _servers.size(); ++i) {
            if (!_servers[i]->failed() &&
                _servers[i]->servesType(ref.type)) {
                filtered.push_back(i);
            }
        }
        if (filtered.empty()) {
            if (_retryEnabled) {
                // Every capable server is down. Burn an attempt and
                // back off; a permanently dead fleet then fails the
                // job instead of spinning or crashing the sim.
                ++rt.tasks[t].attempts;
                taskAttemptFailed(rt, t);
                return;
            }
            fatal("no server can serve task type ", ref.type);
        }
        warn("no eligible server for task type ", ref.type,
             "; dispatching to an ineligible one");
        candidates = &filtered;
    }
    std::size_t target = _policy->pick(*candidates, _servers,
                                       DispatchContext{ref, parent});
    assignTask(rt, t, target);
}

void
GlobalScheduler::assignTask(RuntimeJob &rt, TaskId t,
                            std::size_t server)
{
    TaskRecord &rec = rt.tasks[t];
    rec.server = static_cast<std::int64_t>(server);
    ++rec.attempts;
    if (TraceManager *tr = taskTracer()) {
        tr->instant(_traceTrack, TraceCategory::task,
                    taskName(rt.job.id(), t) + ".dispatch.sv" +
                        std::to_string(server),
                    _sim.curTick());
    }
    // Ship each parent's result over the fabric; the task launches
    // when the last transfer lands. Callbacks carry the slot
    // generation and attempt number, so leftovers from a finished
    // job or a superseded attempt are inert.
    if (_net) {
        JobId id = rt.job.id();
        std::uint32_t slot = rt.slot;
        std::uint32_t gen = rt.generation;
        std::uint32_t epoch = rec.attempts;
        unsigned transfers = 0;
        for (TaskId p : rt.job.parents(t)) {
            Bytes bytes = rt.job.edgeBytes(p, t);
            auto src = static_cast<std::size_t>(rt.tasks[p].server);
            if (src == server || bytes == 0)
                continue;
            ++transfers;
        }
        if (transfers > 0) {
            rec.state = TaskState::transferring;
            rec.pendingTransfers = transfers;
            for (TaskId p : rt.job.parents(t)) {
                Bytes bytes = rt.job.edgeBytes(p, t);
                auto src = static_cast<std::size_t>(rt.tasks[p].server);
                if (src == server || bytes == 0)
                    continue;
                ++_transfersStarted;
                _net->startFlow(
                    src, server, bytes,
                    [this, id, slot, gen, t, epoch] {
                        RuntimeJob *rj = liveJob(slot, gen);
                        if (!rj) {
                            if (_failedJobs.count(id))
                                return; // job abandoned meanwhile
                            HOLDCSIM_PANIC("transfer for finished job ",
                                           id);
                        }
                        TaskRecord &r = rj->tasks[t];
                        if (r.attempts != epoch ||
                            r.state != TaskState::transferring) {
                            return; // attempt superseded
                        }
                        if (--r.pendingTransfers == 0)
                            launchTask(*rj, t);
                    },
                    [this, slot, gen, t, epoch] {
                        // A fault severed this transfer: retry the
                        // whole placement (results must re-ship).
                        RuntimeJob *rj = liveJob(slot, gen);
                        if (!rj)
                            return;
                        const TaskRecord &r = rj->tasks[t];
                        if (r.attempts != epoch ||
                            r.state != TaskState::transferring) {
                            return;
                        }
                        ++_transfersAborted;
                        taskAttemptFailed(*rj, t);
                    });
            }
            return;
        }
    }
    launchTask(rt, t);
}

void
GlobalScheduler::launchTask(RuntimeJob &rt, TaskId t)
{
    auto server = static_cast<std::size_t>(rt.tasks[t].server);
    if (_servers[server]->failed()) {
        // The target crashed while transfers were in flight.
        taskAttemptFailed(rt, t);
        return;
    }
    rt.tasks[t].state = TaskState::running;
    ++_tasksDispatched;
    if (TraceManager *tr = taskTracer()) {
        tr->asyncBegin(_traceTrack, TraceCategory::task,
                       taskName(rt.job.id(), t),
                       taskSpanId(rt.job.id(), t), _sim.curTick());
    }
    _servers[server]->submit(makeRef(rt, t));
    armTaskTimeout(rt, t);
}

void
GlobalScheduler::armTaskTimeout(RuntimeJob &rt, TaskId t)
{
    if (!_retryEnabled || _retry.taskTimeout == 0)
        return;
    std::uint32_t slot = rt.slot;
    std::uint32_t gen = rt.generation;
    std::uint32_t epoch = rt.tasks[t].attempts;
    _oneShots.schedule(_retry.taskTimeout, [this, slot, gen, t, epoch] {
        RuntimeJob *rj = liveJob(slot, gen);
        if (!rj)
            return;
        const TaskRecord &r = rj->tasks[t];
        if (r.attempts != epoch || r.state != TaskState::running)
            return; // completed or already retried
        ++_taskTimeouts;
        auto srv = static_cast<std::size_t>(r.server);
        if (!_servers[srv]->failed())
            _servers[srv]->cancelTask(rj->job.id(), t);
        taskAttemptFailed(*rj, t);
    });
}

void
GlobalScheduler::taskAttemptFailed(RuntimeJob &rt, TaskId t)
{
    TaskRecord &rec = rt.tasks[t];
    if (rec.state == TaskState::done)
        return;
    if (!_retryEnabled || rec.attempts >= _retry.maxAttempts) {
        failJob(rt); // closes any open task spans
        return;
    }
    JobId job = rt.job.id();
    // The routed attempt died; the retry re-routes from scratch.
    if (_taskClosed)
        _taskClosed(job, t, false);
    ++_taskRetries;
    if (TraceManager *tr = taskTracer()) {
        if (rec.state == TaskState::running) {
            // Close the attempt's span: it died instead of completing.
            tr->asyncEnd(_traceTrack, TraceCategory::task,
                         taskName(job, t), taskSpanId(job, t),
                         _sim.curTick());
        }
        tr->instant(_traceTrack, TraceCategory::task,
                    taskName(job, t) + ".retry", _sim.curTick());
    }
    rec.state = TaskState::backoff;
    rec.pendingTransfers = 0;
    std::uint32_t slot = rt.slot;
    std::uint32_t gen = rt.generation;
    std::uint32_t epoch = rec.attempts;
    Tick delay = _retry.backoff(rec.attempts, _retryJitter);
    _oneShots.schedule(delay, [this, slot, gen, t, epoch] {
        RuntimeJob *rj = liveJob(slot, gen);
        if (!rj)
            return;
        const TaskRecord &r = rj->tasks[t];
        if (r.attempts != epoch || r.state != TaskState::backoff)
            return;
        taskReady(*rj, t);
    });
}

void
GlobalScheduler::failJob(RuntimeJob &rt)
{
    JobId job = rt.job.id();
    ++_jobsFailedCount;
    // Every not-yet-done task of the job is abandoned with it.
    _tasksAborted += rt.remaining;
    // Tell the orchestration router every live task is gone
    // (receivers ignore tasks they never routed).
    for (TaskId t = 0; t < rt.job.numTasks(); ++t) {
        if (rt.tasks[t].state == TaskState::deferred)
            --_deferredCount;
        if (_taskClosed && rt.tasks[t].state != TaskState::done)
            _taskClosed(job, t, false);
    }
    // Cancel every sibling still holding resources.
    for (TaskId t = 0; t < rt.job.numTasks(); ++t) {
        if (rt.tasks[t].state != TaskState::running)
            continue;
        if (TraceManager *tr = taskTracer()) {
            tr->asyncEnd(_traceTrack, TraceCategory::task,
                         taskName(job, t), taskSpanId(job, t),
                         _sim.curTick());
        }
        auto srv = static_cast<std::size_t>(rt.tasks[t].server);
        if (!_servers[srv]->failed())
            _servers[srv]->cancelTask(job, t);
    }
    // Purge parked siblings from the global queue.
    _globalQueue.erase(
        std::remove_if(_globalQueue.begin(), _globalQueue.end(),
                       [job](const QueuedTask &q) {
                           return q.job == job;
                       }),
        _globalQueue.end());
    _failedJobs.insert(job);
    releaseJob(rt);
    if (TraceManager *tr = taskTracer()) {
        tr->instant(_traceTrack, TraceCategory::task,
                    "j" + std::to_string(job) + ".failed",
                    _sim.curTick());
    }
    if (_jobFailed)
        _jobFailed(job);
    notifyLoadChanged();
}

void
GlobalScheduler::onServerFailed(std::size_t idx,
                                const std::vector<TaskRef> &killed)
{
    if (_pairBugArmed && idx == _pairBug.second &&
        _pairBug.first < _servers.size() &&
        _servers.at(_pairBug.first)->failed()) {
        debugInjectTaskLeak();
    }
    invalidateCandidateCache();
    for (const TaskRef &ref : killed) {
        // Skip jobs that an earlier kill already abandoned.
        if (RuntimeJob *rt = findJob(ref.job))
            taskAttemptFailed(*rt, ref.task);
    }
    notifyLoadChanged();
}

void
GlobalScheduler::onServerRepaired(std::size_t idx)
{
    invalidateCandidateCache();
    if (_config.useGlobalQueue)
        drainGlobalQueue(*_servers.at(idx));
    notifyLoadChanged();
}

void
GlobalScheduler::onTaskDone(Server &server, const TaskRef &task)
{
    RuntimeJob *found = findJob(task.job);
    if (!found) {
        if (_failedJobs.count(task.job))
            return; // straggler of an abandoned job
        HOLDCSIM_PANIC("completion for unknown job ", task.job);
    }
    RuntimeJob &rt = *found;
    if (rt.tasks[task.task].state == TaskState::done)
        HOLDCSIM_PANIC("job ", task.job, " task ", task.task,
                       " completed twice");
    rt.tasks[task.task].state = TaskState::done;
    if (TraceManager *tr = taskTracer()) {
        tr->asyncEnd(_traceTrack, TraceCategory::task,
                     taskName(task.job, task.task),
                     taskSpanId(task.job, task.task), _sim.curTick());
    }
    if (rt.remaining == 0)
        HOLDCSIM_PANIC("job ", task.job, " over-completed");
    --rt.remaining;
    ++_tasksFinished;

    // Free the container slot before waking children so their
    // routing sees the updated replica occupancy.
    if (_taskClosed)
        _taskClosed(task.job, task.task, true);

    // Wake children whose last parent just finished. A child's
    // dispatch can abandon the job, so stop once the slot changes
    // hands.
    const std::uint32_t gen = rt.generation;
    const std::vector<TaskId> &children = rt.job.children(task.task);
    for (std::size_t i = 0; rt.generation == gen && i < children.size();
         ++i) {
        if (--rt.tasks[children[i]].pendingParents == 0)
            taskReady(rt, children[i]);
    }

    if (rt.generation == gen && rt.remaining == 0) {
        Tick latency = _sim.curTick() - rt.job.arrivalTick();
        ++_jobsCompleted;
        _jobLatency.sample(toSeconds(latency));
        releaseJob(rt);
        if (_jobDone)
            _jobDone(task.job, latency);
    }

    if (_config.useGlobalQueue)
        drainGlobalQueue(server);
    notifyLoadChanged();
}

void
GlobalScheduler::drainGlobalQueue(Server &server)
{
    if (server.failed())
        return;
    // The freed server pulls the first queued task it can serve
    // while it still has spare execution units.
    while (server.load() < server.numCores() && !_globalQueue.empty()) {
        RuntimeJob *rt = nullptr;
        auto pos = std::find_if(
            _globalQueue.begin(), _globalQueue.end(),
            [&](const QueuedTask &q) {
                rt = findJob(q.job);
                return rt && server.servesType(rt->job.task(q.task).type);
            });
        if (pos == _globalQueue.end())
            return;
        TaskId t = pos->task;
        _globalQueue.erase(pos);
        assignTask(*rt, t, server.id());
    }
}

void
GlobalScheduler::notifyLoadChanged()
{
    if (_loadChanged)
        _loadChanged();
}

} // namespace holdcsim
