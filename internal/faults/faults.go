// Package faults is a deterministic fault-injection harness for
// consumer handlers. It exists to *test* the runtime's fault-tolerance
// layer (quarantine, breaker, redelivery): an Injector draws from a
// seeded PRNG and decides, per handler invocation, whether to panic,
// stall, or return an error. The same Profile + seed always produces
// the same fault sequence, so chaos tests and the pcbench fault
// scenario are reproducible.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the error returned by injected handler failures.
// Wrapped errors satisfy errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faults: injected failure")

// Profile describes one pair's fault behaviour. Rates are per handler
// invocation, in [0,1]; the zero Profile injects nothing.
type Profile struct {
	// Seed makes the injection sequence deterministic. Two injectors
	// with the same Profile produce identical Decision streams.
	Seed int64
	// PanicRate is the probability an invocation panics.
	PanicRate float64
	// ErrorRate is the probability an invocation returns ErrInjected.
	ErrorRate float64
	// StallRate is the probability an invocation stalls for Stall
	// before completing normally.
	StallRate float64
	// Stall is the stall duration applied when StallRate fires.
	Stall time.Duration
	// FailFirst forces the first FailFirst invocations to fail with
	// ErrInjected regardless of the rates — handy for driving a breaker
	// open deterministically.
	FailFirst int
}

// Zero reports whether the profile injects no faults at all.
func (p Profile) Zero() bool {
	return p.PanicRate == 0 && p.ErrorRate == 0 && p.StallRate == 0 && p.FailFirst == 0
}

// Decision is what an Injector chose for one invocation. At most one
// of Panic/Err is set; Stall may accompany either or stand alone.
type Decision struct {
	// Panic directs the harness to panic after any stall.
	Panic bool
	// Err is the error to return (nil for a clean invocation).
	Err error
	// Stall is how long to block before completing.
	Stall time.Duration
}

// Clean reports whether the decision injects nothing.
func (d Decision) Clean() bool { return !d.Panic && d.Err == nil && d.Stall == 0 }

// Injector draws fault decisions from a seeded PRNG. Safe for
// concurrent use (a mutex guards the PRNG); decisions are consumed in
// call order, so single-goroutine use is fully deterministic.
type Injector struct {
	mu      sync.Mutex
	profile Profile
	rng     *rand.Rand
	calls   int
}

// NewInjector builds an injector for the profile.
func NewInjector(p Profile) *Injector {
	return &Injector{profile: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Next draws the decision for the next invocation.
func (in *Injector) Next() Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls++
	if in.profile.FailFirst >= in.calls {
		return Decision{Err: fmt.Errorf("%w: forced failure %d/%d", ErrInjected, in.calls, in.profile.FailFirst)}
	}
	var d Decision
	if in.profile.StallRate > 0 && in.rng.Float64() < in.profile.StallRate {
		d.Stall = in.profile.Stall
	}
	// Panic and error are exclusive: one draw, panic first claim.
	switch f := in.rng.Float64(); {
	case in.profile.PanicRate > 0 && f < in.profile.PanicRate:
		d.Panic = true
	case in.profile.ErrorRate > 0 && f < in.profile.PanicRate+in.profile.ErrorRate:
		d.Err = fmt.Errorf("%w: injected error at call %d", ErrInjected, in.calls)
	}
	return d
}
