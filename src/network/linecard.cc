#include "linecard.hh"

#include "sim/logging.hh"

namespace holdcsim {

LineCard::LineCard(Simulator &sim, unsigned id,
                   const SwitchPowerProfile &profile, AccrueFn accrue,
                   StateChangedFn state_changed)
    : _sim(sim), _id(id), _profile(profile),
      _accrue(std::move(accrue)),
      _stateChanged(std::move(state_changed)),
      _sleepEvent([this] {
          if (!anyPortActive() && _state == LineCardState::active)
              setState(LineCardState::sleep);
      }, "linecard.sleep", Event::powerPriority)
{
    _residency.enter(static_cast<int>(_state), sim.curTick());
}

LineCard::~LineCard()
{
    _sim.cancelTimer(_sleepEvent);
}

bool
LineCard::anyPortActive() const
{
    for (const Port *p : _ports) {
        if (p->busy() || p->state() == PortState::active)
            return true;
    }
    return false;
}

void
LineCard::portActivityChanged()
{
    if (_state == LineCardState::off)
        return;
    if (anyPortActive()) {
        _sim.cancelTimer(_sleepEvent);
        return;
    }
    if (_state == LineCardState::active)
        _sim.armTimer(_sleepEvent, _profile.linecardSleepThreshold);
}

Tick
LineCard::wake()
{
    _sim.cancelTimer(_sleepEvent);
    switch (_state) {
      case LineCardState::active:
        return 0;
      case LineCardState::sleep:
        setState(LineCardState::active);
        return _profile.linecardWakeLatency;
      case LineCardState::off:
        fatal("cannot route traffic through a powered-off line card");
    }
    HOLDCSIM_PANIC("unknown LineCardState");
}

void
LineCard::powerOff()
{
    for (const Port *p : _ports) {
        if (p->busy())
            fatal("cannot power off a line card with busy ports");
    }
    _sim.cancelTimer(_sleepEvent);
    setState(LineCardState::off);
}

Watts
LineCard::power() const
{
    switch (_state) {
      case LineCardState::active:
        return _profile.linecardActive;
      case LineCardState::sleep:
        return _profile.linecardSleep;
      case LineCardState::off:
        return _profile.linecardOff;
    }
    HOLDCSIM_PANIC("unknown LineCardState");
}

void
LineCard::setState(LineCardState next)
{
    if (next == _state)
        return;
    _accrue();
    _state = next;
    _residency.enter(static_cast<int>(next), _sim.curTick());
    traceState();
    _stateChanged();
}

void
LineCard::setTraceLabel(std::string label)
{
    _traceLabel = std::move(label);
    traceState();
}

void
LineCard::traceState()
{
    TraceManager *tr = _sim.tracer();
    if (!tr || _traceLabel.empty() ||
        !tr->wants(TraceCategory::network)) {
        return;
    }
    if (_traceTrack == noTraceTrack)
        _traceTrack = tr->track("network", _traceLabel);
    const char *name = _state == LineCardState::active ? "active"
                       : _state == LineCardState::sleep ? "sleep"
                                                        : "off";
    tr->transition(_traceTrack, TraceCategory::network, name,
                   _sim.curTick());
}

} // namespace holdcsim
