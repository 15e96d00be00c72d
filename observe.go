package repro

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ring"
)

// LatencySampleEvery is the deterministic sampling stride of the
// latency histograms: every LatencySampleEvery-th item a pair accepts
// gets an enqueue stamp and contributes one observation to the wait
// and done distributions. Sampling rides the pair's existing item
// counter, so the producer pays no extra atomics — the stride is what
// keeps enabled-observability Put overhead inside its budget on small
// machines while thousands of samples per second still pin the
// quantiles to the histogram's 1/16 resolution. Histogram counts are
// therefore sampled counts (≈ items/LatencySampleEvery), not item
// counts.
const LatencySampleEvery = 1 << stampSampleShift

const (
	stampSampleShift = 3
	stampSampleMask  = LatencySampleEvery - 1
)

// obsState is the runtime's observability plumbing, built by New only
// when WithHistograms or WithTimeline is set. When neither is, rt.obs
// is nil and every hot-path hook is a single pointer check.
type obsState struct {
	hist     bool
	clock    *obs.Clock           // coarse producer clock; nil unless hist
	timeline *obs.Timeline[Event] // nil unless WithTimeline
	mgrDrain []*obs.Histogram

	// retiredWait / retiredDone accumulate closed pairs' histograms so
	// LatencyTotals covers the runtime's whole life, not just the pairs
	// still open (see Runtime.retire).
	retiredWait *obs.Histogram
	retiredDone *obs.Histogram
}

// pairObs is a pair's latency instrumentation: the stamp ring carrying
// enqueue times from the producer, and the two per-pair histograms.
// The ring is single-producer like the pair's queue; its consumer side
// is serialized by the pair's drain lock. When it is full the stamp is
// dropped and counted — the item still flows, its latency just goes
// unobserved. Stamps pair with items by count, not identity, so a drop
// only shifts which timestamp meets which item; for a histogram that
// is harmless.
type pairObs struct {
	stamps *ring.SPSC[int64]
	drops  atomic.Uint64  // stamps discarded on a full ring
	wait   *obs.Histogram // enqueue → handler-start
	done   *obs.Histogram // enqueue → handler-done
	// enqueued counts accepted items for the 1-in-LatencySampleEvery
	// stamp stride. Producer-owned: one producer at a time, as for the
	// queue itself.
	enqueued uint64
}

// stamp records one sampled item's enqueue time, counting the drop
// when the ring is full. Producer side only.
func (po *pairObs) stamp(now int64) {
	if !po.stamps.Push(now) {
		po.drops.Add(1)
	}
}

func newObsState(o options, start time.Time) *obsState {
	s := &obsState{hist: o.histograms}
	if o.timelineCap > 0 {
		s.timeline = obs.NewTimeline[Event](o.timelineCap)
	}
	if o.histograms {
		tick := o.slotSize / 4
		if tick < 200*time.Microsecond {
			tick = 200 * time.Microsecond
		}
		if tick > 2*time.Millisecond {
			tick = 2 * time.Millisecond
		}
		s.clock = obs.NewClock(start, tick)
		s.mgrDrain = make([]*obs.Histogram, o.managers)
		for i := range s.mgrDrain {
			s.mgrDrain[i] = obs.NewHistogram()
		}
		s.retiredWait = obs.NewHistogram()
		s.retiredDone = obs.NewHistogram()
	}
	return s
}

// newPairObs sizes a pair's stamp ring to its buffer: at the 1-in-8
// sampling stride, buffer/4 stamps cover twice the quota (elastic
// lending included); anything beyond is dropped, not blocked on.
func newPairObs(buffer int) *pairObs {
	capacity := buffer / 4
	if capacity < 256 {
		capacity = 256
	}
	if capacity > 1<<16 {
		capacity = 1 << 16
	}
	return &pairObs{
		stamps: ring.NewSPSC[int64](capacity),
		wait:   obs.NewHistogram(),
		done:   obs.NewHistogram(),
	}
}

// DefaultLatencyBounds is the bucket ladder used for Prometheus
// histogram export and LatencyDist.Cumulative: wide enough to bracket
// any sane MaxLatency, fine enough that a p99-vs-bound check has teeth.
func DefaultLatencyBounds() []time.Duration {
	return []time.Duration{
		time.Millisecond,
		2500 * time.Microsecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2500 * time.Millisecond,
	}
}

// LatencyDist summarizes one latency histogram. Quantiles carry the
// histogram's ≤ 1/16 relative resolution error; Cumulative holds the
// counts at or below each DefaultLatencyBounds entry plus the total
// (the Prometheus `le` series).
type LatencyDist struct {
	Count      uint64
	Sum        time.Duration
	Max        time.Duration
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
	Cumulative []uint64
}

func distOf(h *obs.Histogram) LatencyDist {
	bounds := DefaultLatencyBounds()
	nanos := make([]int64, len(bounds))
	for i, b := range bounds {
		nanos[i] = int64(b)
	}
	return LatencyDist{
		Count:      h.Count(),
		Sum:        time.Duration(h.Sum()),
		Max:        time.Duration(h.Max()),
		P50:        time.Duration(h.Quantile(0.50)),
		P95:        time.Duration(h.Quantile(0.95)),
		P99:        time.Duration(h.Quantile(0.99)),
		Cumulative: h.Cumulative(nanos),
	}
}

// PairLatencies is one open pair's latency distributions (see
// Runtime.PairLatencies).
type PairLatencies struct {
	// ID is the pair's runtime-assigned id (Pair.ID).
	ID int
	// Wait is enqueue→handler-start: how long items sat buffered, the
	// latency cost of batching the planner trades against wakeups.
	Wait LatencyDist
	// Done is enqueue→handler-done: the full response latency the §IV
	// model bounds by MaxLatency.
	Done LatencyDist
	// StampDrops counts enqueue timestamps discarded on a full stamp
	// ring; those items flowed normally but went unobserved.
	StampDrops uint64
}

// PairLatencies returns every open pair's latency distributions,
// ordered by pair id. Empty when WithHistograms is off.
func (rt *Runtime) PairLatencies() []PairLatencies {
	if rt.obs == nil || !rt.obs.hist {
		return nil
	}
	rt.pairMu.Lock()
	states := make([]*pairState, 0, len(rt.pairs))
	for _, st := range rt.pairs {
		if st.obs != nil {
			states = append(states, st)
		}
	}
	rt.pairMu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]PairLatencies, len(states))
	for i, st := range states {
		out[i] = PairLatencies{
			ID:         st.id,
			Wait:       distOf(st.obs.wait),
			Done:       distOf(st.obs.done),
			StampDrops: st.obs.drops.Load(),
		}
	}
	return out
}

// ManagerLatencies is one core manager's wake→drain-done distribution
// (see Runtime.ManagerLatencies).
type ManagerLatencies struct {
	ID    int
	Drain LatencyDist
}

// ManagerLatencies returns each manager's wake→drain-done latency: the
// time one timer fire (or forced wake) spent draining every latched
// pair. Empty when WithHistograms is off.
func (rt *Runtime) ManagerLatencies() []ManagerLatencies {
	if rt.obs == nil || !rt.obs.hist {
		return nil
	}
	out := make([]ManagerLatencies, len(rt.obs.mgrDrain))
	for i, h := range rt.obs.mgrDrain {
		out[i] = ManagerLatencies{ID: i, Drain: distOf(h)}
	}
	return out
}

// LatencyTotals merges every pair's histograms — open pairs plus those
// already closed — into runtime-wide wait (enqueue→handler-start) and
// done (enqueue→handler-done) distributions. ok is false when
// WithHistograms is off. Valid after Close too.
func (rt *Runtime) LatencyTotals() (wait, done LatencyDist, ok bool) {
	if rt.obs == nil || !rt.obs.hist {
		return LatencyDist{}, LatencyDist{}, false
	}
	w := obs.NewHistogram()
	d := obs.NewHistogram()
	w.Merge(rt.obs.retiredWait)
	d.Merge(rt.obs.retiredDone)
	rt.pairMu.Lock()
	states := make([]*pairState, 0, len(rt.pairs))
	for _, st := range rt.pairs {
		if st.obs != nil {
			states = append(states, st)
		}
	}
	rt.pairMu.Unlock()
	for _, st := range states {
		w.Merge(st.obs.wait)
		d.Merge(st.obs.done)
	}
	return distOf(w), distOf(d), true
}

// TimelineRecord is one timeline entry as dumped by
// Runtime.TimelineDump and served by pcd's /debug/timeline: the JSON
// shape of one Event, and the live analogue of one mark on the paper's
// Fig. 6 timelines. A drain record's Wake equals the Seq of the
// timer-fire or forced-wake that triggered it, so several drains
// sharing one Wake are the latching payoff made visible.
type TimelineRecord struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Nanos   int64  `json:"nanos"`
	Manager int    `json:"manager"`
	Slot    int64  `json:"slot"`
	Pair    int    `json:"pair,omitempty"`
	Wake    uint64 `json:"wake,omitempty"`
	Items   int    `json:"items,omitempty"`
}

// TimelineDump returns the surviving timeline records in order. The
// ring keeps the most recent records up to the WithTimeline capacity;
// older ones are overwritten (the documented loss bound). Nil when
// WithTimeline is off.
func (rt *Runtime) TimelineDump() []TimelineRecord {
	if rt.obs == nil || rt.obs.timeline == nil {
		return nil
	}
	return timelineRecords(rt.obs.timeline.Dump())
}

// timelineRecords converts dumped events to their JSON shape.
func timelineRecords(events []Event) []TimelineRecord {
	out := make([]TimelineRecord, len(events))
	for i, e := range events {
		out[i] = TimelineRecord{
			Seq:     e.Seq,
			Kind:    e.Kind.String(),
			Nanos:   int64(e.At),
			Manager: e.Manager,
			Slot:    e.Slot,
			Pair:    e.Pair,
			Wake:    e.Wake,
			Items:   e.Items,
		}
	}
	return out
}

// TimelineCap returns the timeline ring capacity (0 when WithTimeline
// is off): a dump never loses more history than this.
func (rt *Runtime) TimelineCap() int {
	if rt.obs == nil || rt.obs.timeline == nil {
		return 0
	}
	return rt.obs.timeline.Cap()
}
