/**
 * @file
 * HolDCSim benchmark driver: one single-threaded process runs one
 * workload for a fixed host-time budget and reports end-to-end and
 * per-layer numbers. perfbench/run.py builds it, runs it and turns
 * its output into the benchmark's result line.
 *
 *   holdcsim_perfbench --workload farm_20k --seed 1 --seconds 30 \
 *                      --trace 0 --layers perfbench/layers.txt
 *   holdcsim_perfbench --workload farm_20k --seed 1 --digest-only 1
 *
 * Every input comes from --seed: the arrival instants (fed through
 * DataCenter::pumpTrace), the service-time stream and the DAG-shape
 * stream. A repetition builds a fresh DataCenter from the same
 * inputs, so repetitions are identical simulations and their stats
 * digests must match.
 *
 * Untraced repetitions give the end-to-end numbers. With --trace 1
 * the driver alternates untraced repetitions with traced ones; a
 * traced repetition installs LayerProbe (a KernelProbe timing every
 * handler from outside and attributing it through the layer map) and
 * wraps the JobGenerator to time job construction.
 *
 * Output: human-readable "name value unit" lines, then one line
 * "PERFBENCH_RESULT <json>" carrying everything run.py needs.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dc/datacenter.hh"
#include "exp/journal.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/service.hh"

using namespace holdcsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

// ------------------------------------------------------------ workloads

/** One workload: plant config plus generated inputs. */
struct Workload {
    std::string name;
    DataCenterConfig config;
    std::vector<Tick> arrivals;
    /** Fresh generator with the seed's service/DAG streams. */
    std::function<std::unique_ptr<JobGenerator>()> makeGenerator;
};

/** Poisson arrival instants, @p n of them, at @p rate per second. */
std::vector<Tick>
poissonArrivals(std::uint64_t seed, double rate, std::size_t n)
{
    Rng rng(seed, "perfbench.arrivals");
    std::vector<Tick> out;
    out.reserve(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.exponential(1.0 / rate);
        out.push_back(fromSeconds(t));
    }
    return out;
}

std::shared_ptr<ServiceModel>
expService(std::uint64_t seed, const char *stream, Tick mean)
{
    return std::make_shared<ExponentialService>(mean, Rng(seed, stream));
}

/**
 * farm_20k: the paper's Table I farm. 20,480 servers x 4 cores, no
 * fabric, single-task jobs with exponential 5 ms service, Poisson
 * arrivals at rho = 0.3, delay timer tau = 500 ms, round-robin.
 */
Workload
farm20k(std::uint64_t seed)
{
    Workload w;
    w.name = "farm_20k";
    DataCenterConfig &c = w.config;
    c.nServers = 20'480;
    c.nCores = 4;
    c.controller = DataCenterConfig::Controller::delayTimer;
    c.delayTimerTau = 500 * msec;
    c.dispatch = DataCenterConfig::Dispatch::roundRobin;
    c.seed = seed;
    const Tick service = 5 * msec;
    double rate = PoissonArrival::rateForUtilization(
        0.3, c.nServers, c.nCores, toSeconds(service));
    w.arrivals = poissonArrivals(seed, rate, 100'000);
    w.makeGenerator = [seed, service] {
        return std::make_unique<SingleTaskGenerator>(
            expService(seed, "perfbench.service", service));
    };
    return w;
}

/** The fat-tree k=16 fabric (1,024 servers, 320 switches) at 10 GbE. */
void
fatTree16(DataCenterConfig &c, std::uint64_t seed)
{
    c.nCores = 4;
    c.fabric = DataCenterConfig::Fabric::fatTree;
    c.fabricParam = 16;
    c.linkRate = 10e9;
    c.controller = DataCenterConfig::Controller::delayTimer;
    c.delayTimerTau = 100 * msec;
    c.netConfig.switchSleepDelay = 10 * msec;
    c.netConfig.netModel.kind = NetModelKind::exact;
    c.seed = seed;
}

/**
 * fabric_rpc: fan-out/in jobs of width 8 passing 64 KB between tasks,
 * anti-affinity on (every DAG edge is a flow), least-loaded dispatch.
 * Many short cross-pod flows: per-update solver cost dominates.
 */
Workload
fabricRpc(std::uint64_t seed)
{
    Workload w;
    w.name = "fabric_rpc";
    fatTree16(w.config, seed);
    w.config.dispatch = DataCenterConfig::Dispatch::leastLoaded;
    w.config.taskAntiAffinity = true;
    const Tick service = 1 * msec;
    const unsigned width = 8;
    // rho = 0.15 over 4,096 cores, width + 2 tasks per job. Higher
    // loads overrun the aggregators' links (the 8-way incast) and the
    // flow backlog then grows with the job count.
    double rate = PoissonArrival::rateForUtilization(
                      0.15, 1'024, 4, toSeconds(service)) /
                  (width + 2);
    // 1,000 jobs reach the ~440 flows re-shared per update the fabric
    // settles at; 500 stop in the ramp, where seeds differ by +-12%.
    w.arrivals = poissonArrivals(seed, rate, 1'000);
    w.makeGenerator = [seed, service, width] {
        return std::make_unique<FanOutInGenerator>(
            expService(seed, "perfbench.service.root", service),
            expService(seed, "perfbench.service.worker", service),
            expService(seed, "perfbench.service.agg", service), width,
            Bytes{64} << 10);
    };
    return w;
}

/**
 * fabric_bulk: the same fabric under the paper's IV-D network-aware
 * dispatch, random layered DAGs whose edges carry MB-scale transfers
 * (about 10^3 flows in flight, few updates each re-sharing many).
 */
Workload
fabricBulk(std::uint64_t seed)
{
    Workload w;
    w.name = "fabric_bulk";
    fatTree16(w.config, seed);
    w.config.dispatch = DataCenterConfig::Dispatch::networkAware;
    w.config.taskAntiAffinity = true;
    const Tick service = 20 * msec;
    // layers=3, width=4: 1 + 2.5 + 2.5 = 6 tasks per job on average.
    // Network-aware placement packs tasks onto few servers whose links
    // then saturate, so this is a batch: arrivals end after ~60 ms and
    // the fabric drains for ~10 simulated seconds.
    double rate = PoissonArrival::rateForUtilization(
                      0.3, 1'024, 4, toSeconds(service)) /
                  6.0;
    w.arrivals = poissonArrivals(seed, rate, 600);
    w.makeGenerator = [seed, service] {
        return std::make_unique<RandomDagGenerator>(
            expService(seed, "perfbench.service", service),
            /*layers=*/3, /*width=*/4, /*edge_probability=*/0.5,
            Bytes{8} << 20, Rng(seed, "perfbench.dag"));
    };
    return w;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "farm_20k")
        return farm20k(seed);
    if (name == "fabric_rpc")
        return fabricRpc(seed);
    if (name == "fabric_bulk")
        return fabricBulk(seed);
    throw std::runtime_error("unknown workload '" + name + "'");
}

// ------------------------------------------------------------ layer map

/**
 * Handler groups the probe keeps apart. pump.arrival is split further
 * by the generator wrapper into job construction (workload) and
 * submitJob + first dispatch (sched).
 */
enum Group : unsigned {
    gPump,
    gServerCompletion,
    gServerGovernor,
    gNetworkFlow,
    gNetworkGovernor,
    gSimWheel,
    gIdle,
    gOther,
    nGroups
};

/**
 * Event name -> group, loaded from layers.txt. Lines are
 * "<pattern> <module> <bucket>"; a pattern ending in '*' matches by
 * prefix. Lookups are memoized per distinct name.
 */
class LayerMap
{
  public:
    explicit LayerMap(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot open layer map " + path);
        std::string line;
        while (std::getline(in, line)) {
            std::istringstream ls(line);
            std::string pattern, module, bucket;
            if (!(ls >> pattern) || pattern[0] == '#')
                continue;
            if (!(ls >> module >> bucket))
                throw std::runtime_error("layer map: bad line: " + line);
            Group g = groupOf(module, bucket);
            if (pattern.back() == '*')
                _prefixes.emplace_back(
                    pattern.substr(0, pattern.size() - 1), g);
            else
                _exact.emplace(pattern, g);
        }
        // Longest prefix first, so "core.*" never shadows a longer one.
        std::sort(_prefixes.begin(), _prefixes.end(),
                  [](const auto &a, const auto &b) {
                      return a.first.size() > b.first.size();
                  });
    }

    Group
    classify(const std::string &name)
    {
        auto it = _exact.find(name);
        if (it != _exact.end())
            return it->second;
        Group g = gOther;
        for (const auto &[prefix, pg] : _prefixes) {
            if (name.compare(0, prefix.size(), prefix) == 0) {
                g = pg;
                break;
            }
        }
        if (g == gOther)
            _unknown.push_back(name);
        _exact.emplace(name, g);
        return g;
    }

    /** Names that matched no pattern (each listed once). */
    const std::vector<std::string> &unknown() const { return _unknown; }

  private:
    static Group
    groupOf(const std::string &module, const std::string &bucket)
    {
        if (bucket == "idle")
            return gIdle;
        static const std::map<std::pair<std::string, std::string>,
                              Group>
            groups = {
                {{"dc", "pump"}, gPump},
                {{"server", "completion"}, gServerCompletion},
                {{"server", "governor"}, gServerGovernor},
                {{"network", "flow"}, gNetworkFlow},
                {{"network", "governor"}, gNetworkGovernor},
                {{"sim", "wheel"}, gSimWheel},
            };
        auto it = groups.find({module, bucket});
        if (it == groups.end())
            throw std::runtime_error("layer map: unknown group " +
                                     module + " " + bucket);
        return it->second;
    }

    std::unordered_map<std::string, Group> _exact;
    std::vector<std::pair<std::string, Group>> _prefixes;
    std::vector<std::string> _unknown;
};

// ---------------------------------------------------------------- probe

/** Per-group handler host time and event count. */
struct GroupTimes {
    std::uint64_t ns[nGroups] = {};
    std::uint64_t count[nGroups] = {};
    /** Host time between handlers: queue pop plus dispatch. */
    std::uint64_t kernelNs = 0;
    /** Time inside JobGenerator::makeJob (within pump.arrival). */
    std::uint64_t buildNs = 0;
    std::uint64_t jobsBuilt = 0;
};

/**
 * Times each handler from outside with two clock reads per event: one
 * at the end of beginEvent (after classifying, so the lookup lands in
 * kernel time) and one in endEvent. The gap from one endEvent to the
 * next beginEvent is kernel time.
 */
class LayerProbe final : public KernelProbe
{
  public:
    LayerProbe(LayerMap &map, GroupTimes &times)
        : _map(map), _t(times)
    {}

    /** Forget the previous handler's end (call before each run()). */
    void startRun() { _haveLast = false; }

    void
    beginEvent(const Event &ev, std::size_t) override
    {
        _cur = _map.classify(ev.name());
        auto now = Clock::now();
        if (_haveLast)
            _t.kernelNs += nsBetween(_lastEnd, now);
        _start = now;
    }

    void
    endEvent() override
    {
        _lastEnd = Clock::now();
        _haveLast = true;
        _t.ns[_cur] += nsBetween(_start, _lastEnd);
        ++_t.count[_cur];
    }

  private:
    LayerMap &_map;
    GroupTimes &_t;
    Group _cur = gOther;
    Clock::time_point _start;
    Clock::time_point _lastEnd;
    bool _haveLast = false;
};

/**
 * Decorates a generator, timing each job construction. Ids still come
 * from the process-wide counter (the outer makeJob), so a wrapped run
 * sees exactly the ids an unwrapped one would.
 */
class TimedGenerator final : public JobGenerator
{
  public:
    TimedGenerator(JobGenerator &inner, GroupTimes &times)
        : _inner(inner), _t(times)
    {}

  protected:
    Job
    buildJob(JobId id, Tick arrival) override
    {
        auto t0 = Clock::now();
        Job job = _inner.makeJob(arrival, id);
        _t.buildNs += nsBetween(t0, Clock::now());
        ++_t.jobsBuilt;
        return job;
    }

  private:
    JobGenerator &_inner;
    GroupTimes &_t;
};

// ------------------------------------------------------------ one rep

/** Outcome of one repetition (one DataCenter, start to dumpStats). */
struct Rep {
    double setupS = 0.0;
    double runS = 0.0;
    /** Host time of each dumpStats call (see statsBudgetS). */
    std::vector<double> statsS;
    /** Every repeated dump matched the first one byte for byte. */
    bool dumpRepeatable = true;
    std::uint64_t injected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failedJobs = 0;
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    std::uint64_t statsLines = 0;
    double simSeconds = 0.0;
    std::size_t servers = 0;
    std::size_t switches = 0;
    bool threw = false;
    std::string error;
    bool traced = false;
    GroupTimes times;
    EventQueue::Counters queue;
    NetSolverStats solver;
    std::uint64_t tasksDispatched = 0;
    std::uint64_t transfersStarted = 0;
    std::uint64_t tasksCompleted = 0;

    /** Jobs that did not complete, or completed as failed. */
    std::uint64_t
    failed() const
    {
        if (threw)
            return injected;
        return (injected - std::min(injected, completed)) + failedJobs;
    }
};

/** FNV-1a over the dump with host-time (host_*) lines removed. */
std::uint64_t
statsDigest(const std::string &dump, std::uint64_t &lines)
{
    std::string kept;
    kept.reserve(dump.size());
    std::istringstream in(dump);
    std::string line;
    lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        if (line.find("host_") != std::string::npos)
            continue;
        kept += line;
        kept += '\n';
    }
    return CampaignJournal::hashConfig(kept);
}

/** Host time each repetition spends on (repeated) stats dumps. */
constexpr double statsBudgetS = 0.1;

Rep
runRep(const Workload &w, LayerMap *map)
{
    Rep r;
    r.traced = map != nullptr;
    r.injected = w.arrivals.size();
    std::vector<Tick> arrivals = w.arrivals;
    std::unique_ptr<JobGenerator> gen = w.makeGenerator();
    std::unique_ptr<LayerProbe> probe;
    std::unique_ptr<TimedGenerator> timed;
    JobGenerator *feed = gen.get();
    if (map) {
        probe = std::make_unique<LayerProbe>(*map, r.times);
        timed = std::make_unique<TimedGenerator>(*gen, r.times);
        feed = timed.get();
    }
    try {
        auto t0 = Clock::now();
        DataCenter dc(w.config);
        r.setupS = secondsSince(t0);
        r.servers = dc.numServers();
        r.switches = dc.network() ? dc.network()->numSwitches() : 0;

        if (probe) {
            dc.sim().setProbe(probe.get());
            probe->startRun();
        }
        auto t1 = Clock::now();
        dc.pumpTrace(std::move(arrivals), *feed);
        dc.run();
        r.runS = secondsSince(t1);
        dc.sim().setProbe(nullptr);

        // A fabric's dump takes about 10 ms and single timings swing by
        // 2x, so the dump repeats until statsBudgetS is spent; stats_s is
        // the median of all of a run's timings. Repeating is safe:
        // dumpStats only closes the books at the current tick, and every
        // repeat must reproduce the first dump, which feeds the digest.
        std::string first;
        double spent = 0.0;
        do {
            auto t2 = Clock::now();
            std::ostringstream dump;
            dc.dumpStats(dump); // finishStats() + dump
            r.statsS.push_back(secondsSince(t2));
            spent += r.statsS.back();
            if (r.statsS.size() == 1)
                first = dump.str();
            else if (dump.str() != first)
                r.dumpRepeatable = false;
        } while (spent < statsBudgetS);
        r.digest = statsDigest(first, r.statsLines);

        GlobalScheduler &s = dc.scheduler();
        r.completed = s.jobsCompleted();
        r.failedJobs = s.jobsFailed();
        r.events = dc.sim().eventsProcessed();
        r.simSeconds = toSeconds(dc.sim().curTick());
        r.queue = dc.sim().eventQueue().counters();
        r.tasksDispatched = s.tasksDispatched();
        r.transfersStarted = s.transfersStarted();
        for (Server *srv : dc.serverPtrs())
            r.tasksCompleted += srv->tasksCompleted();
        if (Network *net = dc.network())
            r.solver = net->flows().solverStats();
    } catch (const std::exception &e) {
        // SimAbortError, FatalError, anything: the whole rep failed.
        r.threw = true;
        r.error = e.what();
    }
    return r;
}

// ----------------------------------------------------------- reporting

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double
medianOf(const std::vector<const Rep *> &reps, F f)
{
    std::vector<double> v;
    for (const Rep *r : reps)
        v.push_back(f(*r));
    return median(v);
}

/** Ordered "name" -> (value, unit) list, printed and emitted as JSON. */
struct Metrics {
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << '{';
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": "
               << e.value << ", \"unit\": \"" << e.unit << "\"}";
        }
        os << '}';
        return os.str();
    }
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

Metrics
endToEnd(const std::vector<const Rep *> &reps,
         const std::vector<double> &setups)
{
    Metrics m;
    m.add("jobs_per_s", medianOf(reps, [](const Rep &r) {
              return static_cast<double>(r.completed) / r.runS;
          }),
          "jobs/s");
    m.add("setup_s", median(setups), "s");
    std::vector<double> stats;
    for (const Rep *r : reps)
        stats.insert(stats.end(), r->statsS.begin(), r->statsS.end());
    m.add("stats_s", median(stats), "s");
    m.add("peak_rss_mb", peakRssMiB(), "MiB");
    return m;
}

Metrics
perLayer(const std::vector<const Rep *> &traced,
         const std::vector<const Rep *> &untraced)
{
    const Rep &c = *traced.front(); // counts are identical across reps
    auto med = [&](auto f) { return medianOf(traced, f); };
    auto sec = [&](Group g) {
        return med([g](const Rep &r) { return r.times.ns[g] * 1e-9; });
    };
    auto cnt = [&](Group g) {
        return static_cast<double>(c.times.count[g]);
    };
    double untracedRun =
        medianOf(untraced, [](const Rep &r) { return r.runS; });
    double tracedRun = med([](const Rep &r) { return r.runS; });
    double kernel = med([](const Rep &r) { return r.times.kernelNs * 1e-9; });
    double build = med([](const Rep &r) { return r.times.buildNs * 1e-9; });
    double submit = med([](const Rep &r) {
        return (static_cast<double>(r.times.ns[gPump]) -
                static_cast<double>(r.times.buildNs)) *
               1e-9;
    });
    double accounted = med([](const Rep &r) {
        std::uint64_t ns = r.times.kernelNs;
        for (unsigned g = 0; g < nGroups; ++g)
            ns += r.times.ns[g];
        return ns * 1e-9;
    });
    auto events = static_cast<double>(c.events);
    double jobs = static_cast<double>(c.times.jobsBuilt);
    double flowEvents = cnt(gNetworkFlow);

    Metrics m;
    m.add("sim.events", events, "count");
    m.add("sim.events_per_s", events / untracedRun, "1/s");
    m.add("sim.kernel_s", kernel, "s");
    m.add("sim.kernel_ns_per_event", kernel * 1e9 / events, "ns");
    m.add("sim.queue_schedules", c.queue.schedules, "count");
    m.add("sim.queue_heap_spills", c.queue.heapSchedules, "count");
    m.add("sim.queue_rebases", c.queue.rebases, "count");
    m.add("sim.queue_peak_depth", c.queue.peakSize, "count");
    m.add("sim.wheel_s", sec(gSimWheel), "s");
    m.add("sim.wheel_events", cnt(gSimWheel), "count");
    m.add("workload.build_s", build, "s");
    m.add("workload.jobs", jobs, "count");
    m.add("sched.submit_s", submit, "s");
    m.add("sched.us_per_submit", jobs > 0 ? submit * 1e6 / jobs : 0.0,
          "us");
    m.add("sched.tasks_dispatched", c.tasksDispatched, "count");
    m.add("sched.transfers_started", c.transfersStarted, "count");
    m.add("server.completion_s", sec(gServerCompletion), "s");
    m.add("server.tasks_completed", c.tasksCompleted, "count");
    m.add("server.governor_s", sec(gServerGovernor), "s");
    m.add("server.governor_events", cnt(gServerGovernor), "count");
    m.add("network.flow_s", sec(gNetworkFlow), "s");
    m.add("network.flow_events", flowEvents, "count");
    m.add("network.us_per_flow_event",
          flowEvents > 0 ? sec(gNetworkFlow) * 1e6 / flowEvents : 0.0,
          "us");
    m.add("network.solver_resolves", c.solver.resolves, "count");
    m.add("network.dirty_flows_mean", c.solver.meanDirtyFlows(), "count");
    m.add("network.dirty_flows_max", c.solver.maxDirtyFlows, "count");
    m.add("network.dirty_links", c.solver.dirtyLinks, "count");
    m.add("network.fast_path_hits", c.solver.fastPathHits, "count");
    m.add("network.governor_s", sec(gNetworkGovernor), "s");
    m.add("network.governor_events", cnt(gNetworkGovernor), "count");
    std::vector<double> stats;
    for (const Rep *r : untraced)
        stats.insert(stats.end(), r->statsS.begin(), r->statsS.end());
    m.add("dc.stats_s", median(stats), "s");
    m.add("dc.stats_lines", c.statsLines, "count");
    m.add("idle_events", cnt(gIdle), "count");
    m.add("other_events", cnt(gOther), "count");
    m.add("other_s", sec(gOther), "s");
    m.add("untraced_run_s", untracedRun, "s");
    m.add("traced_run_s", tracedRun, "s");
    m.add("trace_overhead", tracedRun / untracedRun - 1.0, "ratio");
    m.add("unaccounted_s", tracedRun - accounted, "s");
    return m;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Run one repetition and print only its digest (reference files). */
    bool digestOnly = false;
    std::string layers = "perfbench/layers.txt";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--layers")
            o.layers = v;
        else if (a == "--digest-only")
            o.digestOnly = v == "1";
        else
            throw std::runtime_error("unknown argument " + a);
    }
    if (o.workload.empty())
        throw std::runtime_error("--workload is required");
    return o;
}

/** Fewest DataCenter constructions setup_s is the median of. */
constexpr std::size_t minSetups = 15;

int
run(const Options &o)
{
    setQuiet(true);
    LayerMap map(o.layers);
    Workload w = makeWorkload(o.workload, o.seed);

    // Warm-up: the first DataCenter in a process builds on a cold heap
    // (its setup_s reads about 2x later ones), so it is reported on its
    // own line and left out of the medians.
    std::vector<Rep> reps;
    reps.push_back(runRep(w, nullptr));
    const Rep warm = reps.front();
    if (o.digestOnly) {
        bool ok = !warm.threw && warm.failed() == 0;
        std::printf("PERFBENCH_DIGEST %s %s\n", hex(warm.digest).c_str(),
                    ok ? "ok" : "failed");
        return ok ? 0 : 2;
    }

    // Measure whole repetitions until the budget is spent (at least
    // three measured ones). Another repetition starts only while it can
    // end within half a repetition of the budget, so a run lasts about
    // --seconds whatever the repetition length. Traced runs alternate
    // untraced/traced.
    auto t0 = Clock::now();
    std::size_t measured = 0;
    double lastRepS = 0.0;
    while (measured < 3 ||
           secondsSince(t0) + 0.5 * lastRepS < o.seconds) {
        bool traced = o.trace && measured % 2 == 1;
        auto r0 = Clock::now();
        reps.push_back(runRep(w, traced ? &map : nullptr));
        lastRepS = secondsSince(r0);
        ++measured;
        if (reps.back().threw)
            break;
    }
    double measureS = secondsSince(t0);

    std::vector<const Rep *> untraced, traced;
    for (std::size_t i = 1; i < reps.size(); ++i) {
        if (!reps[i].threw)
            (reps[i].traced ? traced : untraced).push_back(&reps[i]);
    }

    // A fabric builds in a few ms: top the setup sample up with
    // construct-only builds so its median rests on enough values.
    std::vector<double> setups;
    for (const Rep *r : untraced)
        setups.push_back(r->setupS);
    while (!o.trace && !untraced.empty() && setups.size() < minSetups) {
        auto t = Clock::now();
        DataCenter dc(w.config);
        setups.push_back(secondsSince(t));
    }

    // Behaviour checks: nothing throws, every job completes, and every
    // repetition (warm-up and traced included) yields the same digest.
    std::uint64_t attempted = 0, failed = 0;
    bool sameDigest = true;
    std::string error;
    for (const Rep &r : reps) {
        attempted += r.injected;
        failed += r.failed();
        sameDigest = sameDigest && r.digest == warm.digest &&
                     r.dumpRepeatable;
        if (r.threw && error.empty())
            error = r.error;
    }
    bool anyThrew = !error.empty();
    bool correct = !anyThrew && failed == 0 && sameDigest;

    Metrics metrics;
    if (o.trace ? !traced.empty() && !untraced.empty()
                : !untraced.empty()) {
        metrics = o.trace ? perLayer(traced, untraced)
                          : endToEnd(untraced, setups);
    }
    if (o.trace) {
        // Every scheduled event must map to a layer.
        for (const std::string &n : map.unknown())
            std::printf("unmapped event name: %s\n", n.c_str());
        correct = correct && map.unknown().empty();
    }
    double failedFrac =
        attempted ? static_cast<double>(failed) / attempted : 1.0;

    std::printf("workload %s  seed %llu  trace %d\n", w.name.c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
    std::printf("plant %zu servers x %u cores, %zu switches; per rep "
                "%zu jobs, %llu events, %.6f simulated s\n",
                warm.servers, w.config.nCores, warm.switches,
                w.arrivals.size(),
                static_cast<unsigned long long>(warm.events),
                warm.simSeconds);
    std::printf("reps measured %zu (untraced %zu, traced %zu) in %.3f s;"
                " medians exclude the warm-up rep (setup_s %.6f run_s %.6f)"
                "\n",
                measured, untraced.size(), traced.size(), measureS,
                warm.setupS, warm.runS);
    if (!o.trace)
        std::printf("setup_s is the median of %zu constructions\n",
                    setups.size());
    for (std::size_t i = 1; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        std::printf("rep %2zu %-8s setup_s %.6f run_s %.6f stats_s %.6f\n",
                    i, r.traced ? "traced" : "untraced", r.setupS, r.runS,
                    median(r.statsS));
    }
    for (const auto &e : metrics.entries)
        std::printf("%-32s %.9g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    std::printf("%-32s %.9g %s\n", "failed_frac", failedFrac, "ratio");
    std::printf("%-32s %s\n", "stats_digest", hex(warm.digest).c_str());
    if (!sameDigest)
        std::printf("DIGEST MISMATCH across repetitions\n");
    if (anyThrew)
        std::printf("ERROR: %s\n", error.c_str());

    std::printf("PERFBENCH_RESULT {\"workload\": \"%s\", \"correct\": %s, "
                "\"attempted\": %llu, \"failed\": %llu, "
                "\"failed_frac\": %.17g, \"stats_digest\": \"%s\", "
                "\"digest_stable\": %s, \"reps\": %zu, "
                "\"warmup_setup_s\": %.9g, \"error\": \"%s\", "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"metrics\": %s}\n",
                w.name.c_str(), correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), failedFrac,
                hex(warm.digest).c_str(), sameDigest ? "true" : "false",
                measured, warm.setupS, jsonEscape(error).c_str(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                metrics.json().c_str());
    return correct ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "holdcsim_perfbench: %s\n", e.what());
        return 1;
    }
}
