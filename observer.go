package repro

import "time"

// EventKind classifies runtime events. Every kind reaches both views:
// the WithObserver callback and the WithTimeline ring.
type EventKind int

// Event kinds. Unless noted, an event fires on the goroutine of the
// core manager that owns the pair.
const (
	// EventDrain: a pair's buffer was drained through its handler
	// (Items delivered). Wake links it to the timer fire or forced wake
	// it rode; drains riding a probe, migration quiesce, close or
	// shutdown have no Wake.
	EventDrain EventKind = iota
	// EventReserve: a pair reserved a track slot (Slot is the reserved
	// slot).
	EventReserve
	// EventIdle: a pair went idle (no reservation; the next Put re-arms
	// it).
	EventIdle
	// EventPairOpen: a pair was registered with the runtime. Fires on
	// the goroutine calling Open.
	EventPairOpen
	// EventPairClose: a pair was closed or handed off and its pool
	// capacity released. Fires on the goroutine calling Pair.Close or
	// Pair.Handoff.
	EventPairClose
	// EventMigrate: the placement controller moved a pair to another
	// manager (Manager is the destination). Fires on the controller
	// goroutine, after the source manager's quiesce drain and ownership
	// hand-over.
	EventMigrate
	// EventQuarantine: a pair's circuit breaker opened after K
	// consecutive handler failures; the pair stops draining except for
	// half-open probes and Put fails fast with ErrQuarantined.
	EventQuarantine
	// EventRecover: a quarantined pair's probe succeeded and the
	// breaker closed; normal draining resumes.
	EventRecover
	// EventRedeliver: a previously failed batch is being handed to the
	// handler again (Items is the batch size). May fire on a probe
	// goroutine rather than the core manager's.
	EventRedeliver
	// EventDrop: items were discarded after redelivery exhaustion or a
	// failure during a final drain (Items is the count). The drop is
	// accounted in Stats.ItemsDropped, never silent.
	EventDrop
	// EventOverrun: a handler exceeded its HandlerTimeout
	// deadline and the pair was marked degraded. Fires on the watchdog
	// goroutine while the handler is still running.
	EventOverrun
	// EventTimerFire: a manager's slot timer fired and woke it for
	// every pair reserved up to the current slot (Items is how many).
	// The drains it causes carry its Seq as their Wake, so several
	// drains sharing one Wake are the latching payoff (Fig. 6).
	EventTimerFire
	// EventForcedWake: an overflow woke the manager for one pair ahead
	// of its reservation (Items is 1). The forced drain carries its Seq
	// as Wake.
	EventForcedWake
)

var eventKindNames = [...]string{
	EventDrain:      "drain",
	EventReserve:    "reserve",
	EventIdle:       "idle",
	EventPairOpen:   "pair-open",
	EventPairClose:  "pair-close",
	EventMigrate:    "migrate",
	EventQuarantine: "quarantine",
	EventRecover:    "recover",
	EventRedeliver:  "redeliver",
	EventDrop:       "drop",
	EventOverrun:    "overrun",
	EventTimerFire:  "timer-fire",
	EventForcedWake: "forced-wake",
}

// String returns the kind's wire name, as served in TimelineRecord.Kind.
func (k EventKind) String() string {
	if k >= 0 && int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one observable runtime action, for debugging and
// instrumentation (the live analogue of the simulator's
// InvocationTrace). The same Event reaches the Observer and the
// timeline, so the two views agree field for field.
type Event struct {
	// Seq orders events runtime-wide, starting at 1.
	Seq  uint64
	Kind EventKind
	// Pair is the pair's runtime-assigned id (0 on a timer fire, which
	// serves several pairs).
	Pair int
	// Manager is the index of the core manager the event happened on:
	// the pair's owner, or the destination for EventMigrate.
	Manager int
	// At is the event time relative to Runtime start.
	At time.Duration
	// Slot is the reserved slot for EventReserve, and the slot
	// containing At for every other kind.
	Slot int64
	// Wake is the Seq of the EventTimerFire or EventForcedWake that
	// caused an EventDrain; 0 for every other event.
	Wake uint64
	// Items counts what the event moved: items drained, redelivered,
	// dropped or overrunning, or pairs woken by a timer fire or forced
	// wake.
	Items int
	// Scheduled is true for slot-timer drains, false for forced and
	// riding ones (EventDrain only).
	Scheduled bool
}

// WithObserver installs a callback invoked for every runtime event: the
// same stream, Seq for Seq, that WithTimeline records — drains,
// reservations, idle transitions, timer fires and forced wakes, pair
// open/close, migrations, breaker transitions, redeliveries, drops and
// overruns. A drain's Wake names the fire that caused it. The callback
// usually runs on a core-manager goroutine, but quarantine probes,
// watchdog overruns, migrations and pair open/close fire on their own
// goroutines, so it must be safe for concurrent use. Keep it fast and
// non-blocking, or it will delay every consumer latched onto the same
// wakeups.
func WithObserver(fn func(Event)) Option {
	return func(o *options) { o.observer = fn }
}

// emit is the runtime's one event path. It stamps e with the clock, its
// slot and the next sequence number, appends it to the timeline ring
// (WithTimeline) and hands it to the Observer (WithObserver). It
// returns e's Seq, which a drain carries as its Wake. With neither sink
// configured it returns 0 and does nothing else.
func (rt *Runtime) emit(e Event) uint64 {
	if !rt.emitting {
		return 0
	}
	now := rt.now()
	e.At = time.Duration(now)
	if e.Kind != EventReserve {
		e.Slot = rt.planner.Track.Index(now)
	}
	e.Seq = rt.eventSeq.Add(1)
	if rt.obs != nil && rt.obs.timeline != nil {
		rt.obs.timeline.Append(e.Seq, e)
	}
	if cb := rt.opts.observer; cb != nil {
		cb(e)
	}
	return e.Seq
}
