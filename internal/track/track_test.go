package track

import (
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestIndexStartRoundTrip(t *testing.T) {
	tr := New(100, 0)
	cases := []struct {
		t    simtime.Time
		want int64
	}{
		{0, 0}, {1, 0}, {99, 0}, {100, 1}, {250, 2}, {1000, 10},
	}
	for _, c := range cases {
		if got := tr.Index(c.t); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.t, got, c.want)
		}
	}
	if tr.Start(3) != 300 {
		t.Fatalf("Start(3) = %v", tr.Start(3))
	}
}

func TestNegativeAndOffsetOrigin(t *testing.T) {
	tr := New(100, 50)
	if got := tr.Index(49); got != -1 {
		t.Fatalf("Index(49) = %d, want -1", got)
	}
	if got := tr.Index(50); got != 0 {
		t.Fatalf("Index(50) = %d, want 0", got)
	}
	if got := tr.Floor(149); got != 50 {
		t.Fatalf("Floor(149) = %v, want 50", got)
	}
	if got := tr.Floor(20); got != -50 {
		t.Fatalf("Floor(20) = %v, want -50", got)
	}
}

func TestFloorCeilNext(t *testing.T) {
	tr := New(100, 0)
	if tr.Floor(150) != 100 {
		t.Fatalf("Floor(150) = %v", tr.Floor(150))
	}
	if tr.Floor(200) != 200 {
		t.Fatalf("Floor(200) = %v", tr.Floor(200))
	}
	if tr.Ceil(150) != 200 {
		t.Fatalf("Ceil(150) = %v", tr.Ceil(150))
	}
	if tr.Ceil(200) != 200 {
		t.Fatalf("Ceil(200) = %v", tr.Ceil(200))
	}
	if tr.Next(200) != 300 {
		t.Fatalf("Next(200) = %v", tr.Next(200))
	}
	if tr.Next(150) != 200 {
		t.Fatalf("Next(150) = %v", tr.Next(150))
	}
}

func TestAlignedMisalignment(t *testing.T) {
	tr := New(100, 0)
	if !tr.Aligned(300) || tr.Aligned(301) {
		t.Fatal("Aligned misbehaves")
	}
	if tr.Misalignment(345) != 45 {
		t.Fatalf("Misalignment = %v", tr.Misalignment(345))
	}
}

func TestDefaultDelta(t *testing.T) {
	got := DefaultDelta([]simtime.Duration{300, 100, 200})
	if got != 100 {
		t.Fatalf("DefaultDelta = %v", got)
	}
}

func TestDefaultDeltaPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":       func() { DefaultDelta(nil) },
		"nonpositive": func() { DefaultDelta([]simtime.Duration{100, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewInvalidDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0)
}

// Properties of g(τ) = Floor: g(τ) ≤ τ < g(τ)+Δ, g is idempotent, and
// Start/Index are inverse on slot boundaries.
func TestPropertyFloor(t *testing.T) {
	f := func(rawDelta uint32, rawT int64, rawOrigin int32) bool {
		delta := simtime.Duration(rawDelta%1000000 + 1)
		origin := simtime.Time(rawOrigin)
		tr := New(delta, origin)
		// keep τ in a safe range to avoid overflow
		tau := simtime.Time(rawT % (1 << 40))
		g := tr.Floor(tau)
		if g > tau {
			return false
		}
		if tau.Sub(g) >= delta {
			return false
		}
		if tr.Floor(g) != g {
			return false
		}
		i := tr.Index(tau)
		if tr.Start(i) != g {
			return false
		}
		if !tr.Aligned(g) {
			return false
		}
		return tr.Misalignment(tau) == tau.Sub(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ceil(τ) is the smallest aligned time ≥ τ and Next(τ) > τ.
func TestPropertyCeilNext(t *testing.T) {
	f := func(rawDelta uint16, rawT int64) bool {
		delta := simtime.Duration(rawDelta%10000 + 1)
		tr := New(delta, 0)
		tau := simtime.Time(rawT % (1 << 40))
		if tau < 0 {
			tau = -tau
		}
		c := tr.Ceil(tau)
		n := tr.Next(tau)
		if c < tau || !tr.Aligned(c) || c.Sub(tau) >= delta {
			return false
		}
		if n <= tau || !tr.Aligned(n) || n.Sub(tau) > delta {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
