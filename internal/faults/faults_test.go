package faults

import (
	"errors"
	"testing"
	"time"
)

func TestInjectorDeterministic(t *testing.T) {
	p := Profile{Seed: 7, PanicRate: 0.2, ErrorRate: 0.3, StallRate: 0.1, Stall: time.Millisecond}
	a, b := NewInjector(p), NewInjector(p)
	for i := 0; i < 200; i++ {
		da, db := a.Next(), b.Next()
		if da.Panic != db.Panic || (da.Err == nil) != (db.Err == nil) || da.Stall != db.Stall {
			t.Fatalf("call %d diverged: %+v vs %+v", i, da, db)
		}
	}
}

func TestInjectorRates(t *testing.T) {
	in := NewInjector(Profile{Seed: 42, PanicRate: 0.25, ErrorRate: 0.25})
	const n = 4000
	var panics, errs, clean int
	for i := 0; i < n; i++ {
		switch d := in.Next(); {
		case d.Panic:
			panics++
		case d.Err != nil:
			errs++
		default:
			clean++
		}
	}
	for name, got := range map[string]int{"panics": panics, "errors": errs} {
		frac := float64(got) / n
		if frac < 0.20 || frac > 0.30 {
			t.Errorf("%s rate %.3f outside [0.20, 0.30]", name, frac)
		}
	}
	if clean == 0 {
		t.Error("no clean invocations at 50% combined fault rate")
	}
}

func TestFailFirst(t *testing.T) {
	in := NewInjector(Profile{FailFirst: 3})
	for i := 0; i < 3; i++ {
		d := in.Next()
		if !errors.Is(d.Err, ErrInjected) {
			t.Fatalf("call %d: want forced ErrInjected, got %+v", i+1, d)
		}
	}
	if d := in.Next(); !d.Clean() {
		t.Fatalf("call 4 after FailFirst=3: want clean, got %+v", d)
	}
}

func TestZeroProfile(t *testing.T) {
	if !(Profile{}).Zero() {
		t.Fatal("zero Profile not Zero()")
	}
	in := NewInjector(Profile{})
	for i := 0; i < 100; i++ {
		if d := in.Next(); !d.Clean() {
			t.Fatalf("zero profile injected %+v", d)
		}
	}
}
