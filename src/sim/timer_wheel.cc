#include "timer_wheel.hh"

#include <algorithm>

#include "logging.hh"
#include "simulator.hh"

namespace holdcsim {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

TimerWheel::TimerWheel(Simulator &sim, Tick granularity, std::size_t slots)
    : _sim(sim), _granularity(granularity),
      _slots(roundUpPow2(std::max<std::size_t>(slots, 2))),
      _tickEvent([this] { tick(); }, "wheel.tick", Event::powerPriority)
{
    if (granularity == 0)
        fatal("TimerWheel: granularity must be >= 1 tick");
}

TimerWheel::~TimerWheel()
{
    if (_scheduledAt != maxTick)
        _sim.deschedule(_tickEvent);
    // Mark survivors off the wheel so their destructors don't panic.
    for (Slot &slot : _slots)
        for (Event *ev : slot.events)
            if (ev)
                ev->_onWheel = false;
    for (auto &entry : _overflow)
        entry.second->_onWheel = false;
}

Tick
TimerWheel::quantize(Tick t) const
{
    if (_granularity == 1)
        return t;
    if (t > maxTick - (_granularity - 1))
        return maxTick - maxTick % _granularity; // saturate on a boundary
    return ((t + _granularity - 1) / _granularity) * _granularity;
}

void
TimerWheel::slotInsert(Event &ev)
{
    const std::uint32_t idx = slotIndex(ev._when);
    Slot &s = _slots[idx];
    ev._qBucket = idx;
    ev._qSlot = s.events.size();
    s.events.push_back(&ev);
    ++s.live;
}

void
TimerWheel::settleOverflow(Tick base)
{
    const Tick horizon_end = base + span();
    while (!_overflow.empty() &&
           _overflow.begin()->first.first < horizon_end) {
        Event &ev = *_overflow.begin()->second;
        _overflow.erase(_overflow.begin());
        slotInsert(ev);
        ++_stats.overflowMigrations;
    }
}

void
TimerWheel::arm(Event &ev, Tick delay)
{
    if (ev.scheduled())
        HOLDCSIM_PANIC("event '", ev.name(),
                       "' armed on the timer wheel while scheduled");
    cancel(ev);
    const Tick now = _sim.curTick();
    if (delay > maxTick - now)
        fatal("TimerWheel: deadline overflows Tick (now=", now,
              " delay=", delay, ")");
    const Tick dl = quantize(now + delay);

    // An empty wheel may hold a stale window from long ago; snap it
    // forward so near deadlines land in the ring, not the overflow.
    if (_live == 0)
        _windowBase = now - now % _granularity;

    ev._onWheel = true;
    ev._when = dl;
    if (dl < _windowBase + span()) {
        slotInsert(ev);
    } else {
        ev._qBucket = Event::inHeap;
        ev._qSlot = _nextSeq++;
        _overflow.emplace(std::make_pair(dl, ev._qSlot), &ev);
    }

    ++_live;
    ++_stats.armed;
    if (_live > _stats.maxLive)
        _stats.maxLive = _live;

    if (dl < _scheduledAt)
        scheduleAt(dl);
}

void
TimerWheel::cancel(Event &ev)
{
    if (!ev._onWheel)
        return;
    ev._onWheel = false;
    if (ev._qBucket == Event::inHeap) {
        _overflow.erase({ev._when, ev._qSlot});
    } else if (ev._qSlot < _batch.size() && _batch[ev._qSlot] == &ev) {
        // Still waiting its turn in the firing batch (fired and
        // cancelled batch entries are nulled, so a match is exact).
        _batch[ev._qSlot] = nullptr;
    } else {
        Slot &s = _slots[ev._qBucket];
        s.events[ev._qSlot] = nullptr; // keeps the rest in arm order
        if (--s.live == 0)
            s.events.clear(); // nothing live left: drop the nulls
    }
    --_live;
    ++_stats.cancelled;
    if (_live == 0 && _scheduledAt != maxTick) {
        _sim.deschedule(_tickEvent);
        _scheduledAt = maxTick;
    }
}

void
TimerWheel::scheduleAt(Tick when)
{
    _sim.reschedule(_tickEvent, when);
    _scheduledAt = when;
}

void
TimerWheel::tick()
{
    const Tick boundary = _sim.curTick();
    _scheduledAt = maxTick;
    ++_stats.tickEvents;

    // Slide the window so it starts at the boundary being fired. All
    // live deadlines are >= boundary (it is the minimum), and ring
    // entries armed under the old window satisfy dl < oldBase + span
    // <= boundary + span, so every ring entry stays inside the new
    // window and the slot-index formula still finds it.
    _windowBase = boundary;
    settleOverflow(boundary);

    // Detach this boundary's batch before firing: callbacks may arm
    // new timers (strictly future after quantization, or this very
    // boundary at zero delay) into the slot. The slot holds its
    // timers in arm order, the deterministic fire order.
    Slot &slot = _slots[slotIndex(boundary)];
    _batch.clear();
    _batch.swap(slot.events);
    slot.live = 0;
    std::uint64_t fired = 0;
    for (Event *&entry : _batch) {
        Event *ev = entry;
        if (!ev)
            continue; // cancelled, possibly by an earlier callback
        entry = nullptr;
        ev->_onWheel = false;
        --_live;
        ++_stats.fired;
        ++fired;
        ev->process();
    }
    if (fired > _stats.maxBatch)
        _stats.maxBatch = fired;
    _batch.clear();

    if (_live == 0)
        return; // stay descheduled; run() may drain and finish

    // Find the next occupied boundary. k = 0 re-checks the current
    // slot: a callback may have armed a zero-delay timer landing on
    // this very boundary, which must fire later this tick, not a lap
    // from now. Then scan the ring forward and fall back to the
    // overflow map (whose first deadline is beyond the ring horizon
    // by construction).
    Tick next = maxTick;
    const std::size_t n = _slots.size();
    for (std::size_t k = 0; k <= n; ++k) {
        const Tick b = boundary + _granularity * static_cast<Tick>(k);
        if (_slots[slotIndex(b)].live > 0) {
            next = b;
            break;
        }
    }
    if (next == maxTick && !_overflow.empty())
        next = _overflow.begin()->first.first;
    if (next == maxTick)
        fatal("TimerWheel: ", _live, " live timers but no next boundary");
    scheduleAt(next);
}

} // namespace holdcsim
