// Package sim provides the discrete-event multicore machine every
// experiment runs on: the §IV system model made executable.
//
// A Machine owns a simtime.Loop and a set of Cores. A Core is a busy
// horizon: callers enqueue work with RunFor, and the core is active
// from the first enqueue until the horizon drains, then idle until the
// next enqueue — which is a *wakeup* (Eq. 3: w(τ) = ω iff the core was
// idle). Residency in each state is integrated lazily and handed to the
// power model at the end of the run.
//
// The machine is strictly single-threaded over virtual time, so every
// run is deterministic given its inputs.
package sim

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/simtime"
)

// Machine is a simulated multicore system.
type Machine struct {
	Loop  *simtime.Loop
	Model power.Model
	cores []*Core
}

// NewMachine builds a machine with n cores under the given power model.
func NewMachine(n int, model power.Model) *Machine {
	if n <= 0 {
		panic(fmt.Sprintf("sim: invalid core count %d", n))
	}
	if err := model.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{Loop: simtime.NewLoop(), Model: model}
	for i := 0; i < n; i++ {
		m.cores = append(m.cores, &Core{machine: m, id: i, busyUntil: neverRan})
	}
	return m
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Now returns the machine's current virtual time.
func (m *Machine) Now() simtime.Time { return m.Loop.Now() }

// Finish closes residency accounting at the loop's current time and
// returns per-core residencies. Call once, after the run completes.
func (m *Machine) Finish() []power.Residency {
	return m.Snapshot()
}

// Snapshot integrates residency up to the loop's current time and
// returns per-core residencies. Unlike the historical Finish name
// suggests, it is repeatable: controllers call it every tick to compute
// windowed power as an energy delta, then once more at the end of the
// run for the final report.
func (m *Machine) Snapshot() []power.Residency {
	end := m.Loop.Now()
	out := make([]power.Residency, len(m.cores))
	for i, c := range m.cores {
		c.account(end)
		out[i] = power.Residency{
			Active:        c.activeTime,
			Shallow:       c.shallowTime,
			Idle:          c.idleTime,
			Wakeups:       c.wakeups,
			Derating:      c.derating,
			ActiveScaled:  c.activeScaled,
			ShallowScaled: c.shallowScaled,
		}
	}
	return out
}

// TotalWakeups sums wakeups across cores (the Eq. 4 objective).
func (m *Machine) TotalWakeups() uint64 {
	var total uint64
	for _, c := range m.cores {
		total += c.wakeups
	}
	return total
}

// neverRan marks a core that has not executed anything yet; any first
// work is then a wakeup.
const neverRan = simtime.Time(-1)

// Core models one CPU core as a busy horizon with lazy residency
// integration.
type Core struct {
	machine *Machine
	id      int

	busyUntil   simtime.Time // end of the current/last active segment
	accounted   simtime.Time // residency integrated up to here
	pinnedAwake bool         // busy-wait consumers never idle the core

	activeTime  simtime.Duration
	shallowTime simtime.Duration
	idleTime    simtime.Duration
	wakeups     uint64
	derating    float64 // active-power scale; 0 = 1.0

	// DVFS operating point. freq 0 means the core has never left f=1
	// and the scaled residencies stay zero (see power.Residency); once
	// SetFrequency is called, dvfs latches and active/shallow segments
	// additionally accrue into the DVFS-weighted accumulators at
	// power.DVFSScale of the frequency they ran at.
	freq          float64
	dvfs          bool
	activeScaled  simtime.Duration
	shallowScaled simtime.Duration
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Wakeups returns the number of idle→active transitions so far.
func (c *Core) Wakeups() uint64 { return c.wakeups }

// SetDerating scales the core's active power (used by the Yield
// spinner model). Must be in (0, 1].
func (c *Core) SetDerating(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("sim: invalid derating %v", f))
	}
	c.derating = f
}

// Frequency returns the core's relative frequency (1.0 when never set).
func (c *Core) Frequency() float64 {
	if c.freq == 0 {
		return 1
	}
	return c.freq
}

// SetFrequency moves the core to relative frequency f ∈ (0, 1].
// Residency up to now is integrated at the old operating point first, so
// mid-run transitions keep energy accounting exact; work enqueued after
// the call stretches by 1/f inside RunFor. Panics outside (0, 1].
func (c *Core) SetFrequency(f float64) {
	power.DVFSScale(f) // validates f
	c.account(c.machine.Loop.Now())
	if !c.dvfs {
		// Everything so far ran at f=1 (scale 1): seed the weighted
		// accumulators so they stay a complete integral from t=0.
		c.dvfs = true
		c.activeScaled = c.activeTime
		c.shallowScaled = c.shallowTime
	}
	c.freq = f
}

// scale is the active-power factor for the current operating point.
func (c *Core) scale() float64 { return power.DVFSScale(c.Frequency()) }

// PinAwake marks the core permanently active (busy-wait and yield
// spinners). Residency becomes all-active; no wakeups accrue.
func (c *Core) PinAwake() { c.pinnedAwake = true }

// Active reports whether the core is active at the current time. An
// invocation scheduled now on an active core latches for free (w=0);
// on an idle core it will pay a wakeup.
func (c *Core) Active() bool {
	return c.pinnedAwake || c.busyUntil > c.machine.Loop.Now()
}

// ActiveAt reports whether the core's busy horizon covers t ≥ now.
// Consumers use it to evaluate w(s) for future slots: a future slot is
// only known-awake if already-queued work stretches past it, which the
// core manager models through reservations instead — so this is mainly
// for introspection and tests.
func (c *Core) ActiveAt(t simtime.Time) bool {
	return c.pinnedAwake || c.busyUntil > t
}

// account integrates residency up to t. Active segments additionally
// accrue into the DVFS-weighted accumulator once SetFrequency has been
// called; SetFrequency accounts before switching, so no segment ever
// spans two operating points.
func (c *Core) account(t simtime.Time) {
	if t <= c.accounted {
		return
	}
	if c.pinnedAwake {
		c.bookActive(t.Sub(c.accounted))
		c.accounted = t
		return
	}
	activeEnd := c.busyUntil
	if activeEnd > t {
		activeEnd = t
	}
	if activeEnd > c.accounted {
		c.bookActive(activeEnd.Sub(c.accounted))
		c.accounted = activeEnd
	}
	if t > c.accounted {
		c.idleTime += t.Sub(c.accounted)
		c.accounted = t
	}
}

// bookActive records d of active residency at the current operating
// point.
func (c *Core) bookActive(d simtime.Duration) {
	c.activeTime += d
	if c.dvfs {
		c.activeScaled += simtime.Duration(float64(d) * c.scale())
	}
}

// bookShallow records d of shallow (C1/WFI) residency at the current
// operating point.
func (c *Core) bookShallow(d simtime.Duration) {
	c.shallowTime += d
	if c.dvfs {
		c.shallowScaled += simtime.Duration(float64(d) * c.scale())
	}
}

// RunFor enqueues d of work on the core at the current virtual time and
// returns the completion timestamp.
//
// Gap classification follows the cpuidle governor (§II): if the gap
// since the busy horizon drained is shorter than the model's
// IdleThreshold the core only reached the shallow C1 state — re-running
// is free (no wakeup, no wake latency) but the gap burned shallow
// power. A gap at or beyond the threshold means the core entered deep
// idle: resuming is a wakeup, with the model's wake latency added to
// the busy horizon ahead of the work (the transition window burns
// active power but does no useful work).
func (c *Core) RunFor(d simtime.Duration) simtime.Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative work %v", d))
	}
	if f := c.Frequency(); f != 1 {
		// Work stretches by 1/f at reduced frequency. The wake latency
		// below is a hardware transition and does not stretch.
		d = simtime.Duration(float64(d) / f)
	}
	now := c.machine.Loop.Now()
	if c.pinnedAwake {
		c.account(now)
		// A pinned core is always hot; work just takes time.
		if c.busyUntil < now {
			c.busyUntil = now
		}
		c.busyUntil = c.busyUntil.Add(d)
		return c.busyUntil
	}
	gap := now.Sub(c.busyUntil)
	switch {
	case c.busyUntil == neverRan || (gap > 0 && gap >= c.machine.Model.IdleThreshold):
		// Deep idle → active edge: a wakeup.
		c.account(now)
		c.wakeups++
		c.busyUntil = now.Add(c.machine.Model.WakeLatency).Add(d)
	case gap > 0:
		// Short gap: the core lingered in C1. Close the active segment,
		// book the gap as shallow residency, resume without wake cost.
		c.account(c.busyUntil)
		c.bookShallow(gap)
		c.accounted = now
		c.busyUntil = now.Add(d)
	default:
		// Continuation: the horizon extends.
		c.account(now)
		c.busyUntil = c.busyUntil.Add(d)
	}
	return c.busyUntil
}

// UsageMsPerS returns the PowerTop-style usage metric for the residency
// accumulated so far relative to the elapsed run time: milliseconds of
// active execution per second of wall-clock.
func (c *Core) UsageMsPerS(runtime simtime.Duration) float64 {
	if runtime <= 0 {
		return 0
	}
	return float64(c.activeTime) / float64(simtime.Millisecond) / runtime.Seconds()
}
