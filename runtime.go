package repro

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/simtime"
	"repro/internal/track"
)

// Stats is a snapshot of runtime counters. TimerWakes + ForcedWakes is
// the live analogue of the paper's wakeup objective (Eq. 4): how many
// times consumer work pulled a core manager out of its sleep. Runtime.Stats
// derives it from the pairs' and managers' own counters, closed pairs
// included, so every field only grows between snapshots.
type Stats struct {
	// TimerWakes counts slot-timer expirations that drained at least
	// one pair (the scheduled wakeups of §V-B).
	TimerWakes uint64
	// ForcedWakes counts overflow-forced drains (the unscheduled
	// wakeups of §VI-C).
	ForcedWakes uint64
	// Invocations counts pair drains, scheduled or forced.
	Invocations uint64
	// ItemsIn / ItemsOut count produced and consumed items.
	ItemsIn  uint64
	ItemsOut uint64
	// Overflows counts Put calls that found the buffer at quota.
	Overflows uint64
	// HandlerPanics counts recovered consumer-handler panics.
	HandlerPanics uint64
	// HandlerErrors counts non-nil returns from error-aware handlers
	// (see Handler and the Func adaptor).
	HandlerErrors uint64
	// HandlerTimeouts counts watchdog deadline overruns (see
	// HandlerTimeout).
	HandlerTimeouts uint64
	// Quarantines counts circuit-breaker open transitions; Recoveries
	// counts successful half-open probes closing a breaker.
	Quarantines uint64
	Recoveries  uint64
	// Redeliveries counts failed batches re-offered to their handler.
	Redeliveries uint64
	// ItemsDropped counts items discarded after redelivery exhaustion
	// or a failure during a final drain. Conservation: once every
	// producer has returned and the runtime is closed,
	// ItemsIn == ItemsOut + ItemsDropped + HandedOff.
	ItemsDropped uint64
	// Migrations counts pairs moved between managers by the placement
	// controller (see WithConsolidation).
	Migrations uint64
	// PowerThrottles counts power-cap ladder escalations (see
	// WithPowerCap). Zero unless a cap is configured.
	PowerThrottles uint64
	// HandedOff counts items extracted unprocessed by Pair.Handoff for
	// cross-process migration; they re-enter some runtime's ItemsIn when
	// the new owner ingests them.
	HandedOff uint64
}

// counters holds the only runtime facts that belong to no pair and no
// manager. Every other Stats field is summed from the pairs' and
// managers' own counters (see Runtime.Stats).
type counters struct {
	recoveries     atomic.Uint64
	migrations     atomic.Uint64
	powerThrottles atomic.Uint64
}

// Runtime hosts core managers and the shared elastic buffer pool. All
// methods are safe for concurrent use.
type Runtime struct {
	opts     options
	start    time.Time
	planner  *core.Planner
	managers []*manager
	placer   *placementController // nil unless WithConsolidation
	capper   *powerCapController  // nil unless WithPowerCap
	stats    counters
	obs      *obsState // nil unless WithHistograms/WithTimeline

	// emitting is true when an event sink (WithObserver or WithTimeline)
	// is configured; eventSeq numbers the events emit hands them.
	emitting bool
	eventSeq atomic.Uint64

	poolMu sync.Mutex
	pool   *buffer.Pool

	pairMu    sync.Mutex
	nextPair  int
	openPairs int
	pairs     map[int]*pairState
	retired   PairStats // closed pairs' counters, folded in by retire

	closed atomic.Bool
	wg     sync.WaitGroup
}

// New builds and starts a runtime.
func New(opts ...Option) (*Runtime, error) {
	o := defaultOptions()
	for _, f := range opts {
		f(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		opts:  o,
		start: time.Now(),
		pairs: make(map[int]*pairState),
		pool:  buffer.NewPool(o.buffer, o.minQuota),
		planner: &core.Planner{
			Track:             track.New(simtime.Duration(o.slotSize), 0),
			B0:                o.buffer,
			MaxLatency:        simtime.Duration(o.maxLatency),
			Headroom:          o.headroom,
			OmegaMicro:        o.omegaMicro,
			PerItemMicro:      o.perItemMicro,
			OverheadMicro:     o.overheadMicro,
			DisableLatching:   o.disableLatching,
			DisableResizing:   o.disableResizing,
			DisablePrediction: o.disablePrediction,
			// Shared ω multiplier: pair-specific planner copies (per-pair
			// MaxLatency) inherit the handle, so the power-cap controller
			// throttles every pair with one Set.
			Scale: &core.OmegaScale{},
		},
	}
	if o.histograms || o.timelineCap > 0 {
		rt.obs = newObsState(o, rt.start)
	}
	rt.emitting = o.observer != nil || o.timelineCap > 0
	for i := 0; i < o.managers; i++ {
		rt.managers = append(rt.managers, newManager(rt, i))
	}
	if o.consolidate != nil {
		pc, err := newPlacementController(rt, *o.consolidate)
		if err != nil {
			return nil, err
		}
		rt.placer = pc
	}
	if o.powercap != nil {
		rt.capper = newPowerCapController(rt, *o.powercap)
	}
	for _, m := range rt.managers {
		m := m
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			m.loop()
		}()
	}
	if rt.placer != nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.placer.loop()
		}()
	}
	if rt.capper != nil {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			rt.capper.loop()
		}()
	}
	return rt, nil
}

// now returns the runtime's virtual timestamp (nanoseconds since New).
func (rt *Runtime) now() simtime.Time {
	return simtime.Time(time.Since(rt.start))
}

// wallAt converts a virtual timestamp back to wall-clock time.
func (rt *Runtime) wallAt(t simtime.Time) time.Time {
	return rt.start.Add(time.Duration(t))
}

// Stats returns a snapshot of the runtime counters. Each fact has one
// source: the per-pair counters, summed over every pair the runtime
// ever opened (the closed ones through the total retire folds them
// into, the open ones through their PairStats), the per-manager wakeup
// counters, and the three facts only the runtime knows (Recoveries,
// Migrations, PowerThrottles). Every field is therefore non-decreasing
// from one snapshot to the next, and closed pairs stay included. Like
// PairStats, each pair's ItemsIn is read after the items that left, so
// a snapshot taken mid-flight never shows ItemsOut + ItemsDropped +
// HandedOff above ItemsIn.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		Recoveries:     rt.stats.recoveries.Load(),
		Migrations:     rt.stats.migrations.Load(),
		PowerThrottles: rt.stats.powerThrottles.Load(),
	}
	for _, m := range rt.managers {
		s.TimerWakes += m.timerWakes.Load()
		s.ForcedWakes += m.forcedWakes.Load()
	}
	rt.pairMu.Lock()
	ps := rt.retired
	for _, st := range rt.pairs {
		ps = ps.fold(st.pairStats(), PairStats{})
	}
	rt.pairMu.Unlock()
	s.ItemsIn = ps.ItemsIn
	s.ItemsOut = ps.ItemsOut
	s.Invocations = ps.Invocations
	s.Overflows = ps.Overflows
	s.HandlerPanics = ps.Panics
	s.HandlerErrors = ps.Errors
	s.HandlerTimeouts = ps.Timeouts
	s.Quarantines = ps.Quarantines
	s.Redeliveries = ps.Redeliveries
	s.ItemsDropped = ps.Dropped
	s.HandedOff = ps.HandedOff
	return s
}

// PairSnapshot is one open pair's identity and counters as captured by
// Runtime.PairSnapshots.
type PairSnapshot struct {
	// ID is the pair's runtime-assigned id (Pair.ID).
	ID int
	// Len is the number of items buffered at snapshot time.
	Len int
	// Quota is the pair's current elastic buffer capacity.
	Quota int
	// Armed reports whether the pair holds (or is about to compute) a
	// slot reservation — the live analogue of "has a scheduled wakeup".
	Armed bool
	// Manager is the index of the core manager currently hosting the
	// pair (round-robin at creation; the placement controller may move
	// it, see WithConsolidation).
	Manager int
	// Quarantined reports an open circuit breaker (Put fails fast and
	// only half-open probes drain the pair; see Breaker).
	Quarantined bool
	// Degraded reports that the most recent handler invocation overran
	// its HandlerTimeout deadline; a clean invocation clears it.
	Degraded bool
	// Retained is the size of a failed batch held for redelivery.
	Retained int
	PairStats
}

// PairSnapshots captures every open pair's stats in one call, ordered
// by pair id. Pairs closed before the call no longer appear here, but
// Stats still counts them, so the per-pair counters sum to the matching
// Stats fields only while no pair has closed (and up to snapshot skew).
func (rt *Runtime) PairSnapshots() []PairSnapshot {
	rt.pairMu.Lock()
	states := make([]*pairState, 0, len(rt.pairs))
	for _, st := range rt.pairs {
		states = append(states, st)
	}
	rt.pairMu.Unlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	snaps := make([]PairSnapshot, len(states))
	for i, st := range states {
		snaps[i] = PairSnapshot{
			ID:          st.id,
			Len:         st.pending(),
			Quota:       st.quota(),
			Armed:       st.armed.Load(),
			Manager:     st.mgr.Load().id,
			Quarantined: st.quarantined.Load(),
			Degraded:    st.degraded.Load(),
			Retained:    int(st.retained.Load()),
			PairStats:   st.pairStats(),
		}
	}
	return snaps
}

// Close stops every core manager, draining all remaining buffered
// items through their handlers first. Close is idempotent and safe to
// race with concurrent Put: once every producer has returned, every
// accepted item has been drained, dropped or handed off
// (ItemsIn == ItemsOut + ItemsDropped + HandedOff; drops only happen
// when a handler fails during these final drains or exhausted
// redelivery).
func (rt *Runtime) Close() error {
	if rt.closed.Swap(true) {
		return nil
	}
	if rt.placer != nil {
		close(rt.placer.done)
	}
	if rt.capper != nil {
		close(rt.capper.done)
	}
	for _, m := range rt.managers {
		close(m.done)
	}
	rt.wg.Wait()
	// Producers that passed Put's closed check before the flag flipped
	// may have enqueued after their manager's final drain. Sweep every
	// still-open pair so no accepted item is stranded; Put's own
	// post-push closed re-check catches enqueues that land after this
	// sweep (see Pair.Put).
	rt.pairMu.Lock()
	states := make([]*pairState, 0, len(rt.pairs))
	for _, st := range rt.pairs {
		states = append(states, st)
	}
	rt.pairMu.Unlock()
	for _, st := range states {
		st.drain(rt, causeFinal, 0)
	}
	if rt.obs != nil && rt.obs.clock != nil {
		rt.obs.clock.Stop()
	}
	return nil
}

// requestQuota serializes pool negotiation across manager goroutines.
func (rt *Runtime) requestQuota(id, want int) int {
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
	return rt.pool.Request(id, want)
}

// addPair registers a pair with the pool, returning its id.
func (rt *Runtime) addPair() (int, error) {
	if rt.closed.Load() {
		return 0, ErrClosed
	}
	rt.pairMu.Lock()
	defer rt.pairMu.Unlock()
	if rt.openPairs >= rt.opts.maxPairs {
		return 0, ErrTooManyPairs
	}
	id := rt.nextPair
	rt.nextPair++
	rt.openPairs++
	rt.poolMu.Lock()
	err := rt.pool.Add(id)
	rt.poolMu.Unlock()
	if err != nil {
		return 0, err
	}
	return id, nil
}

// trackPair records a pair's manager-side state for PairSnapshots and
// Close's final sweep.
func (rt *Runtime) trackPair(st *pairState) {
	rt.pairMu.Lock()
	rt.pairs[st.id] = st
	rt.pairMu.Unlock()
}

// retire folds a closing pair into the runtime's retired totals so
// Stats and LatencyTotals keep covering it. It is idempotent and does
// nothing until the pair's close sequence has detached it from its
// manager. The first call after that removes the pair and releases its
// pool membership; every call adds the pair's counts since its last
// fold, which is how an item a racing Put pushed after the close drain
// is still counted in and out exactly once (see Pair.Put).
func (rt *Runtime) retire(st *pairState) {
	if !st.detached.Load() {
		return
	}
	rt.pairMu.Lock()
	_, first := rt.pairs[st.id]
	if first {
		delete(rt.pairs, st.id)
		rt.openPairs--
	}
	cur := st.pairStats()
	rt.retired = rt.retired.fold(cur, st.folded)
	st.folded = cur
	rt.pairMu.Unlock()
	if !first {
		return
	}
	if st.obs != nil && rt.obs != nil && rt.obs.hist {
		rt.obs.retiredWait.Merge(st.obs.wait)
		rt.obs.retiredDone.Merge(st.obs.done)
	}
	rt.poolMu.Lock()
	_ = rt.pool.Remove(st.id)
	rt.poolMu.Unlock()
}

// managerFor assigns pairs to managers round-robin by id.
func (rt *Runtime) managerFor(id int) *manager {
	return rt.managers[id%len(rt.managers)]
}
