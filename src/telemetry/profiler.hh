/**
 * @file
 * DES-kernel profiling.
 *
 * The KernelProfiler plugs into Simulator::setProbe() and observes
 * every event dispatch: per-event-type counts and host-side service
 * time, plus the queue-depth high-water mark. It answers "where does
 * the simulator itself spend its time" -- the engine-throughput
 * question behind the paper's scalability claims -- without touching
 * the simulated clock or event ordering.
 */

#ifndef HOLDCSIM_TELEMETRY_PROFILER_HH
#define HOLDCSIM_TELEMETRY_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/timer_wheel.hh"

namespace holdcsim {

/** Per-event-dispatch profiler (install via Simulator::setProbe). */
class KernelProfiler : public KernelProbe
{
  public:
    /** Accumulated cost of one event type. */
    struct TypeStats {
        std::uint64_t count = 0;
        /** Host (wall-clock) nanoseconds inside process(). */
        std::uint64_t hostNs = 0;
    };

    KernelProfiler() = default;

    void beginEvent(const Event &ev, std::size_t queued) override;
    void endEvent() override;

    /** Newest-last dump of the recent-event ring (abort post-mortem). */
    void dumpRecent(std::ostream &os) const override;

    /** Events observed; equals Simulator::eventsProcessed() gained
     *  while installed. */
    std::uint64_t eventsObserved() const { return _events; }

    /** Largest queue size seen at any pop (popped event included). */
    std::size_t peakQueueDepth() const { return _peakDepth; }

    /** Total host nanoseconds spent inside event process() calls. */
    std::uint64_t totalHostNs() const;

    /** Per-type totals, keyed by event name. */
    const std::map<std::string, TypeStats> &byType() const
    {
        return _byType;
    }

    /** Per-type rows sorted by host time, hottest first. */
    std::vector<std::pair<std::string, TypeStats>> hottest() const;

    /** Register profile.* scalars on @p group (name "profile"). */
    void addStats(StatGroup &group) const;

    /**
     * Register queue.* occupancy / bucket-spill counters of the
     * two-level event queue on @p group (pairs with addStats on the
     * same "profile" group).
     */
    static void addQueueStats(StatGroup &group, const EventQueue &queue);

    /**
     * Register wheel.* coalescing counters of the shared governor
     * timer wheel on @p group (pairs with addStats on the same
     * "profile" group; call only when a wheel is installed).
     */
    static void addWheelStats(StatGroup &group, const TimerWheel &wheel);

    /** Human-readable hot-events table, each line "# "-prefixed. */
    void dumpHotTable(std::ostream &os) const;

    /**
     * Machine-readable JSON summary (three_tier --profile). @p
     * wall_seconds is the harness-measured wall time of the run; pass
     * 0 if unknown (events_per_sec is then omitted). When @p queue is
     * non-null its occupancy / spill counters are emitted as an
     * "event_queue" object. When @p wheel is non-null its coalescing
     * counters are emitted as a "timer_wheel" object.
     */
    void dumpJson(std::ostream &os, double wall_seconds,
                  const EventQueue *queue = nullptr,
                  const TimerWheel *wheel = nullptr) const;

    void reset();

  private:
    using Clock = std::chrono::steady_clock;

    std::uint64_t _events = 0;
    std::size_t _peakDepth = 0;
    std::map<std::string, TypeStats> _byType;

    /** In-flight dispatch (name copied: one-shots self-delete). */
    std::string _currentName;
    Clock::time_point _currentStart;

    /** Recent-event ring for Simulator::abortDump() post-mortems. */
    struct RecentEvent {
        Tick tick = 0;
        std::size_t queued = 0;
        std::string name;
    };
    static constexpr std::size_t recentCapacity = 32;
    std::vector<RecentEvent> _recent;
    std::size_t _recentNext = 0;
};

} // namespace holdcsim

#endif // HOLDCSIM_TELEMETRY_PROFILER_HH
