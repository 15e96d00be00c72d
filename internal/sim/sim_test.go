package sim

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/simtime"
)

func testModel() power.Model {
	return power.Model{
		ActiveMilliwatts:  1000,
		IdleMilliwatts:    100,
		ShallowMilliwatts: 300,
		IdleThreshold:     0, // every positive gap is a deep idle
		WakeLatency:       10 * simtime.Microsecond,
		YieldDerating:     1,
	}
}

func TestNewMachine(t *testing.T) {
	m := NewMachine(2, testModel())
	if m.Core(0).ID() != 0 || m.Core(1).ID() != 1 {
		t.Fatal("core ids wrong")
	}
	if m.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
}

func TestNewMachineInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachine(0, testModel())
}

func TestNewMachineBadModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMachine(1, power.Model{})
}

func TestWakeupOnIdleEdgeOnly(t *testing.T) {
	m := NewMachine(1, testModel())
	c := m.Core(0)
	if c.Active() {
		t.Fatal("core should start idle")
	}
	// First work: wakeup.
	end := c.RunFor(100 * simtime.Microsecond)
	want := simtime.Time(110 * simtime.Microsecond) // wake latency + work
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if c.Wakeups() != 1 {
		t.Fatalf("wakeups = %d", c.Wakeups())
	}
	if !c.Active() {
		t.Fatal("core should be active")
	}
	// More work while active: no new wakeup, horizon extends.
	end2 := c.RunFor(50 * simtime.Microsecond)
	if end2 != want.Add(50*simtime.Microsecond) {
		t.Fatalf("end2 = %v", end2)
	}
	if c.Wakeups() != 1 {
		t.Fatalf("latched work caused wakeup: %d", c.Wakeups())
	}
	// Let the horizon drain, then work again: second wakeup.
	m.Loop.RunUntil(simtime.Time(simtime.Second))
	if c.Active() {
		t.Fatal("core should have gone idle")
	}
	c.RunFor(10 * simtime.Microsecond)
	if c.Wakeups() != 2 {
		t.Fatalf("wakeups = %d", c.Wakeups())
	}
}

func TestZeroWorkStillWakes(t *testing.T) {
	// An invocation with no items still activates the core.
	m := NewMachine(1, testModel())
	c := m.Core(0)
	c.RunFor(0)
	if c.Wakeups() != 1 {
		t.Fatalf("wakeups = %d", c.Wakeups())
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	m := NewMachine(1, testModel())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Core(0).RunFor(-1)
}

func TestResidencyAccounting(t *testing.T) {
	m := NewMachine(1, testModel())
	c := m.Core(0)
	// Work 1ms at t=0 (plus 10µs wake latency), then idle to t=10ms.
	c.RunFor(simtime.Millisecond)
	m.Loop.RunUntil(simtime.Time(10 * simtime.Millisecond))
	res := m.Finish()
	active := res[0].Active
	idle := res[0].Idle
	wantActive := simtime.Millisecond + 10*simtime.Microsecond
	if active != wantActive {
		t.Fatalf("active = %v, want %v", active, wantActive)
	}
	if active+idle != simtime.Duration(10*simtime.Millisecond) {
		t.Fatalf("residency doesn't cover run: %v + %v", active, idle)
	}
	if res[0].Wakeups != 1 {
		t.Fatalf("wakeups = %d", res[0].Wakeups)
	}
}

func TestResidencyClipsUnfinishedWork(t *testing.T) {
	m := NewMachine(1, testModel())
	c := m.Core(0)
	c.RunFor(simtime.Duration(simtime.Second)) // far beyond the run end
	m.Loop.RunUntil(simtime.Time(100 * simtime.Millisecond))
	res := m.Finish()
	if res[0].Active != simtime.Duration(100*simtime.Millisecond) {
		t.Fatalf("active = %v, want clipped to run", res[0].Active)
	}
	if res[0].Idle != 0 {
		t.Fatalf("idle = %v", res[0].Idle)
	}
}

func TestPinAwake(t *testing.T) {
	m := NewMachine(1, testModel())
	c := m.Core(0)
	c.PinAwake()
	if !c.Active() {
		t.Fatal("pinned core should be active")
	}
	c.RunFor(simtime.Millisecond)
	m.Loop.RunUntil(simtime.Time(simtime.Second))
	res := m.Finish()
	if res[0].Wakeups != 0 {
		t.Fatalf("pinned core recorded wakeups: %d", res[0].Wakeups)
	}
	if res[0].Active != simtime.Duration(simtime.Second) {
		t.Fatalf("active = %v, want full run", res[0].Active)
	}
	if res[0].Idle != 0 {
		t.Fatalf("idle = %v", res[0].Idle)
	}
}

func TestDerating(t *testing.T) {
	m := NewMachine(1, testModel())
	c := m.Core(0)
	c.SetDerating(0.5)
	c.PinAwake()
	m.Loop.RunUntil(simtime.Time(simtime.Second))
	res := m.Finish()
	if res[0].Derating != 0.5 {
		t.Fatalf("derating = %v", res[0].Derating)
	}
	e := m.Model.EnergyMillijoules(res[0])
	if math.Abs(e-500) > 1e-9 {
		t.Fatalf("derated energy = %v, want 500", e)
	}
}

func TestSetDeratingInvalid(t *testing.T) {
	m := NewMachine(1, testModel())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Core(0).SetDerating(0)
}

func TestTotalWakeups(t *testing.T) {
	m := NewMachine(2, testModel())
	m.Core(0).RunFor(1)
	m.Core(1).RunFor(1)
	m.Loop.RunUntil(simtime.Time(simtime.Second))
	m.Core(0).RunFor(1)
	if m.TotalWakeups() != 3 {
		t.Fatalf("TotalWakeups = %d", m.TotalWakeups())
	}
}

func TestUsageMsPerS(t *testing.T) {
	m := NewMachine(1, testModel())
	c := m.Core(0)
	c.PinAwake()
	run := simtime.Duration(2 * simtime.Second)
	m.Loop.RunUntil(simtime.Time(run))
	m.Finish()
	if got := c.UsageMsPerS(run); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("usage = %v, want 1000 ms/s", got)
	}
	if c.UsageMsPerS(0) != 0 {
		t.Fatal("zero runtime usage should be 0")
	}
}

// Latching scenario from Fig. 6: three consumers invoked at the same
// instant on one core cost one wakeup; spread out, they cost three.
func TestLatchingReducesWakeups(t *testing.T) {
	grouped := NewMachine(1, testModel())
	c := grouped.Core(0)
	grouped.Loop.Schedule(simtime.Time(simtime.Millisecond), func() {
		c.RunFor(10 * simtime.Microsecond) // consumer A
		c.RunFor(10 * simtime.Microsecond) // consumer B latches
		c.RunFor(10 * simtime.Microsecond) // consumer C latches
	})
	grouped.Loop.Run()
	if c.Wakeups() != 1 {
		t.Fatalf("grouped wakeups = %d, want 1", c.Wakeups())
	}

	spread := NewMachine(1, testModel())
	c2 := spread.Core(0)
	for i := 0; i < 3; i++ {
		at := simtime.Time((i + 1) * int(simtime.Millisecond))
		spread.Loop.Schedule(at, func() { c2.RunFor(10 * simtime.Microsecond) })
	}
	spread.Loop.Run()
	if c2.Wakeups() != 3 {
		t.Fatalf("spread wakeups = %d, want 3", c2.Wakeups())
	}
}

// Energy conservation: residency spans equal the run length on every
// core regardless of workload pattern.
func TestResidencyConservation(t *testing.T) {
	m := NewMachine(3, testModel())
	for i := 0; i < 200; i++ {
		core := m.Core(i % 3)
		at := simtime.Time(i * 137 * int(simtime.Microsecond))
		m.Loop.Schedule(at, func() { core.RunFor(simtime.Duration(50 * simtime.Microsecond)) })
	}
	run := simtime.Duration(simtime.Second)
	m.Loop.RunUntil(simtime.Time(run))
	for i, r := range m.Finish() {
		if r.Span() != run {
			t.Fatalf("core %d residency %v != run %v", i, r.Span(), run)
		}
	}
}
