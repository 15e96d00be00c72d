// Package simtime provides a deterministic virtual clock and event loop
// for discrete-event simulation.
//
// Time is measured in integer nanoseconds from the start of a run. The
// event loop is a binary heap ordered by (time, sequence), so events
// scheduled for the same instant fire in the order they were scheduled.
// The loop is strictly single-threaded: determinism is a core design
// goal of the simulator (see DESIGN.md §5.1), and every source of
// nondeterminism — including map iteration and goroutine interleaving —
// is kept out of the hot path.
package simtime

import (
	"fmt"
	"math"
)

// Time is an absolute virtual timestamp in nanoseconds since the start
// of the simulation run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring the time package for readability in
// simulation code.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual timestamp. It is used as
// a sentinel for "never".
const MaxTime Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts the timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the timestamp as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds converts the duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts the duration to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String renders the duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", d.Microseconds())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// DurationOfSeconds converts floating-point seconds to a Duration,
// rounding to the nearest nanosecond.
func DurationOfSeconds(s float64) Duration {
	return Duration(math.Round(s * float64(Second)))
}

// Event is a scheduled callback. Events are created by Loop.Schedule
// and may be cancelled until they fire.
type Event struct {
	at    Time
	seq   uint64
	index int // position in the heap, -1 when not queued
	fn    func()
}

// At returns the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Loop is a discrete-event simulation loop.
//
// The zero value is a usable loop starting at time 0.
type Loop struct {
	now  Time
	seq  uint64
	heap []*Event
}

// NewLoop returns an empty loop with the clock at zero.
func NewLoop() *Loop { return &Loop{} }

// Now returns the current virtual time. During an event callback this is
// the scheduled time of that event.
func (l *Loop) Now() Time { return l.now }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: a simulation that rewinds time is a logic error
// we want to surface immediately, not mask.
func (l *Loop) Schedule(at Time, fn func()) *Event {
	if at < l.now {
		panic(fmt.Sprintf("simtime: scheduling event at %v before now %v", at, l.now))
	}
	if fn == nil {
		panic("simtime: scheduling nil callback")
	}
	e := &Event{at: at, seq: l.seq, fn: fn, index: -1}
	l.seq++
	l.push(e)
	return e
}

// After queues fn to run d after the current time.
func (l *Loop) After(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return l.Schedule(l.now.Add(d), fn)
}

// Cancel removes a pending event. It is a no-op (returning false) if the
// event already fired or was cancelled.
func (l *Loop) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	l.remove(e.index)
	e.index = -1
	return true
}

// Step fires the single earliest pending event, advancing the clock to
// its timestamp. It returns false if the queue is empty.
func (l *Loop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	e := l.heap[0]
	l.remove(0)
	e.index = -1
	l.now = e.at
	e.fn()
	return true
}

// Run fires events until the queue is empty.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil fires all events scheduled at or before deadline, then
// advances the clock to the deadline. Events scheduled after the
// deadline remain queued.
func (l *Loop) RunUntil(deadline Time) {
	for len(l.heap) > 0 && l.heap[0].at <= deadline {
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// RunFor is RunUntil(Now()+d).
func (l *Loop) RunFor(d Duration) { l.RunUntil(l.now.Add(d)) }

// heap operations (manual to keep Event.index in sync without the
// container/heap interface indirection on the hot path).

func (l *Loop) less(i, j int) bool {
	a, b := l.heap[i], l.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (l *Loop) swap(i, j int) {
	l.heap[i], l.heap[j] = l.heap[j], l.heap[i]
	l.heap[i].index = i
	l.heap[j].index = j
}

func (l *Loop) push(e *Event) {
	e.index = len(l.heap)
	l.heap = append(l.heap, e)
	l.up(e.index)
}

func (l *Loop) remove(i int) {
	last := len(l.heap) - 1
	if i != last {
		l.swap(i, last)
	}
	l.heap[last] = nil
	l.heap = l.heap[:last]
	if i != last && i < len(l.heap) {
		if !l.down(i) {
			l.up(i)
		}
	}
}

func (l *Loop) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !l.less(i, parent) {
			break
		}
		l.swap(i, parent)
		i = parent
	}
}

func (l *Loop) down(i int) bool {
	moved := false
	n := len(l.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && l.less(right, left) {
			least = right
		}
		if !l.less(least, i) {
			break
		}
		l.swap(i, least)
		i = least
		moved = true
	}
	return moved
}
