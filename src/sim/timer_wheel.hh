/**
 * @file
 * Coarse-granularity batching for power-state governor timers.
 *
 * Every idle governor (core C-state demotion, port LPI, line card and
 * switch sleep countdowns) owns one Event and arms it through
 * Simulator::armTimer(). At exact granularity (the default) that is a
 * plain reschedule on the event queue. When Simulator::
 * setTimerGranularity(G) picks a bucket width G >= 1, the Simulator
 * builds this wheel and the same Events ride it instead: deadlines are
 * quantized UP to a bucket boundary and all timers sharing a boundary
 * fire from ONE kernel event, in deterministic arm order.
 *
 * Structure: a fixed ring of S slots each covering one G-tick
 * boundary within the rolling horizon [windowBase, windowBase + S*G),
 * plus an ordered overflow map for deadlines beyond the horizon
 * (migrated into the ring as the window advances -- the same
 * discipline as the calendar event queue's overflow heap). A single
 * "wheel.tick" event rides the simulator at the earliest live
 * boundary; when no timers are live it is descheduled, so the wheel
 * never extends a run() past the last real deadline.
 *
 * An Event sits in at most one place -- the event queue or the wheel
 * -- and the wheel records where in the Event's own location fields,
 * so cancel finds it directly: O(1) in a slot (the entry is nulled,
 * keeping the slot in arm order), O(log n) in the overflow map.
 * Callbacks may freely arm/cancel timers while a batch is firing.
 *
 * Semantics vs. exact timers: a timer armed for now+d fires at
 * ceil((now+d)/G)*G -- never early, at most G-1 ticks late (Linux
 * timer-slack style). With G == 1 the wheel is tick-exact and
 * statistics-identical to exact timers; coarser G trades bounded
 * governor-transition delay for event coalescing.
 */

#ifndef HOLDCSIM_SIM_TIMER_WHEEL_HH
#define HOLDCSIM_SIM_TIMER_WHEEL_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "event.hh"
#include "types.hh"

namespace holdcsim {

class Simulator;

/** Bucketed one-shot timer facility shared by many entities. */
class TimerWheel
{
  public:
    /** Kernel-visible cost counters (dumped as profile.wheel.*). */
    struct Stats {
        std::uint64_t armed = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t fired = 0;
        /** Kernel event dispatches ("wheel.tick" count). */
        std::uint64_t tickEvents = 0;
        /** Largest number of timers fired by one tick event. */
        std::uint64_t maxBatch = 0;
        /** Entries moved overflow-heap -> ring as the window slid. */
        std::uint64_t overflowMigrations = 0;
        /** Peak live timers. */
        std::uint64_t maxLive = 0;
    };

    /**
     * @param sim         owning engine (the wheel schedules one event)
     * @param granularity bucket width G in ticks (>= 1; 1 = exact)
     * @param slots       ring size (rounded up to a power of two)
     */
    TimerWheel(Simulator &sim, Tick granularity,
               std::size_t slots = 1024);
    /** Releases the Events still on the wheel (like ~EventQueue). */
    ~TimerWheel();
    TimerWheel(const TimerWheel &) = delete;
    TimerWheel &operator=(const TimerWheel &) = delete;

    /**
     * Arm @p ev to fire (its process() is called) at curTick() +
     * @p delay, quantized up to the next bucket boundary. An Event
     * already on the wheel is cancelled and re-armed. @p delay must
     * be finite (callers gate their own maxTick = disabled
     * sentinels). @pre !ev.scheduled()
     */
    void arm(Event &ev, Tick delay);

    /** Take @p ev off the wheel; a no-op when it is not on it. */
    void cancel(Event &ev);

    Tick granularity() const { return _granularity; }
    std::size_t numSlots() const { return _slots.size(); }
    /** Currently armed (live, unfired) timers. */
    std::size_t live() const { return _live; }
    const Stats &stats() const { return _stats; }

  private:
    /**
     * One boundary's timers, in arm order (nullptr once cancelled):
     * every arm appends, and the overflow map migrates a deadline's
     * timers into its slot before the ring window admits direct arms
     * for that deadline.
     */
    struct Slot {
        std::vector<Event *> events;
        /** Non-null entries; the slot is occupied iff live > 0. */
        std::uint32_t live = 0;
    };

    Tick quantize(Tick t) const;
    Tick span() const
    {
        return _granularity * static_cast<Tick>(_slots.size());
    }
    std::uint32_t slotIndex(Tick deadline) const
    {
        return static_cast<std::uint32_t>(
            (deadline / _granularity) & (_slots.size() - 1));
    }
    void slotInsert(Event &ev);
    /** Migrate overflow timers inside the window starting at @p base. */
    void settleOverflow(Tick base);

    /** Kernel event body: fire the current boundary's batch. */
    void tick();
    void scheduleAt(Tick when);

    Simulator &_sim;
    Tick _granularity;
    std::vector<Slot> _slots;
    /** Timers beyond the ring horizon by (deadline, arm order); a
     *  resident Event keeps its arm order in Event::_qSlot. */
    std::map<std::pair<Tick, std::uint64_t>, Event *> _overflow;
    std::uint64_t _nextSeq = 0;
    std::size_t _live = 0;
    /** Boundaries < _windowBase have fired; ring covers
     *  [_windowBase, _windowBase + span()). */
    Tick _windowBase = 0;
    Tick _scheduledAt = maxTick;
    EventFunctionWrapper _tickEvent;
    /** The timers of the boundary now firing (empty between ticks);
     *  entries are nulled as they fire or are cancelled. */
    std::vector<Event *> _batch;
    Stats _stats;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_TIMER_WHEEL_HH
