// Package track implements the paper's slot-track abstraction: "our
// algorithm interprets time as a track with periodic slots" (§V-A),
// like a race track with markings every Δ.
//
// Slots are indexed by int64; slot i spans [origin+i·Δ, origin+(i+1)·Δ).
// The package provides the alignment function g(τ) = inf{s ∈ S | s ≤ τ}
// (Eq. 6) and the misalignment objective of Eq. 7.
package track

import (
	"fmt"

	"repro/internal/simtime"
)

// Track is an immutable slot grid.
type Track struct {
	delta  simtime.Duration
	origin simtime.Time
}

// New returns a track with slot size delta starting at origin.
func New(delta simtime.Duration, origin simtime.Time) Track {
	if delta <= 0 {
		panic(fmt.Sprintf("track: invalid slot size %v", delta))
	}
	return Track{delta: delta, origin: origin}
}

// Index returns the slot containing t (floor division, correct for t
// before the origin too).
func (tr Track) Index(t simtime.Time) int64 {
	d := int64(t - tr.origin)
	q := d / int64(tr.delta)
	if d%int64(tr.delta) < 0 {
		q--
	}
	return q
}

// Start returns the start timestamp of slot i.
func (tr Track) Start(i int64) simtime.Time {
	return tr.origin.Add(simtime.Duration(i) * tr.delta)
}

// Floor is the paper's g(τ): the latest slot start ≤ τ (Eq. 6).
func (tr Track) Floor(t simtime.Time) simtime.Time {
	return tr.Start(tr.Index(t))
}

// Ceil returns the earliest slot start ≥ t.
func (tr Track) Ceil(t simtime.Time) simtime.Time {
	f := tr.Floor(t)
	if f == t {
		return t
	}
	return f.Add(tr.delta)
}

// Next returns the earliest slot start strictly after t.
func (tr Track) Next(t simtime.Time) simtime.Time {
	return tr.Floor(t).Add(tr.delta)
}

// Aligned reports whether t lies exactly on a slot boundary (Eq. 5's
// ideal: ∀i,j: τᵢⱼ ∈ S).
func (tr Track) Aligned(t simtime.Time) bool {
	return tr.Floor(t) == t
}

// Misalignment returns |τ − g(τ)|, one term of the Eq. 7 objective.
func (tr Track) Misalignment(t simtime.Time) simtime.Duration {
	return t.Sub(tr.Floor(t))
}

// DefaultDelta computes the paper's default slot size: "the minimum of
// all maximum acceptable response latencies defined by the
// producer-consumer pairs" (§V-A). It panics on an empty set or
// non-positive latency — a configuration error.
func DefaultDelta(maxLatencies []simtime.Duration) simtime.Duration {
	if len(maxLatencies) == 0 {
		panic("track: no consumers to derive a slot size from")
	}
	min := maxLatencies[0]
	for _, l := range maxLatencies[1:] {
		if l < min {
			min = l
		}
	}
	if min <= 0 {
		panic(fmt.Sprintf("track: non-positive max latency %v", min))
	}
	return min
}
