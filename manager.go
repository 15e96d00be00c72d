package repro

import (
	"context"
	"math"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/simtime"
)

// drainReport is the outcome of one fault-isolated drain
// (Pair.drainFault): how many items were offered to the handler, how
// many it completed, how many were discarded, and how the invocation
// failed, if it did.
type drainReport struct {
	// attempted is the number of items handed to the handler
	// (redelivered + fresh); zero means the handler never ran.
	attempted int
	// delivered is the number of items the handler completed cleanly.
	delivered int
	// dropped is the number of items discarded (redelivery exhausted,
	// or a failure on a final drain).
	dropped int
	// dequeued is the number of fresh items popped from the queue this
	// call — the rate-predictor signal (redelivered items were already
	// dequeued by an earlier drain).
	dequeued int
	// failed is true when any invocation panicked, returned an error,
	// or overran its deadline.
	failed bool
	// timedOut is true when an invocation overran its
	// HandlerTimeout deadline (the caller should re-sample the
	// clock: the handler stole that time from the manager goroutine).
	timedOut bool
}

// pairState is the manager-side, type-erased view of a pair. Except for
// the atomic flags, all fields are owned by the manager goroutine.
type pairState struct {
	id int
	// mgr is the manager currently owning the pair. It only changes on
	// the owning manager's goroutine (see Runtime.migrate), so a command
	// running there that observes mgr == m can rely on ownership staying
	// put for its whole duration.
	mgr atomic.Pointer[manager]

	// drainFault drains the pair's queue through its handler with panic
	// recovery, watchdog and redelivery handling (type erasure over
	// Pair[T]). final marks shutdown/close drains, where a failed batch
	// is dropped (and accounted) instead of retained.
	drainFault func(final bool) drainReport
	// pending returns the current queue length.
	pending func() int
	// pushed returns how many items the pair ever accepted: the
	// queue's own published count, so an item is counted in no later
	// than a drain can count it out.
	pushed func() uint64
	// quota returns the pair's current elastic queue quota.
	quota func() int
	// setQuota adjusts the pair's elastic queue quota.
	setQuota func(int)

	// obs is the pair's latency instrumentation; nil unless the runtime
	// was built WithHistograms (the only hot-path cost then is this nil
	// check).
	obs *pairObs

	pred         predict.Predictor
	planner      *core.Planner
	lastDrain    simtime.Time
	reservedSlot int64 // -1 when none; manager-owned

	// Fault-tolerance configuration, fixed at creation.
	handlerTimeout time.Duration    // 0: no watchdog
	breakerK       int              // consecutive failures to quarantine; 0: breaker off
	maxRedeliver   int              // redeliveries before a failed batch drops
	baseBackoff    simtime.Duration // first probe/redelivery delay (one slot)
	maxBackoff     simtime.Duration // probe backoff cap

	// Circuit-breaker state, owned by the manager goroutine.
	consecFails int
	backoff     simtime.Duration
	// probeAt is when the next half-open probe may run (simtime nanos;
	// atomic so Put can admit probe fodder once it is due).
	probeAt atomic.Int64

	// Per-pair counters (atomics: read by PairStats from any goroutine,
	// written on the producer and manager paths). They are the only
	// copy: Runtime.Stats sums them.
	itemsOut     atomic.Uint64
	invocations  atomic.Uint64
	overflows    atomic.Uint64
	kicks        atomic.Uint64
	panics       atomic.Uint64
	herrors      atomic.Uint64
	timeouts     atomic.Uint64
	quarantines  atomic.Uint64
	redeliveries atomic.Uint64
	dropped      atomic.Uint64
	handedOff    atomic.Uint64

	// armed is true while the manager holds (or is about to compute) a
	// reservation for this pair. Producers set it on the first item
	// into an empty, unarmed pair and kick the manager.
	armed atomic.Bool
	// forcePending coalesces overflow force requests.
	forcePending atomic.Bool
	closed       atomic.Bool
	// quarantined is true while the circuit breaker is open.
	quarantined atomic.Bool
	// degraded is set by the watchdog when a handler overruns its
	// deadline; cleared by the next clean invocation.
	degraded atomic.Bool
	// probing is true while a half-open probe runs on its own goroutine.
	probing atomic.Bool
	// retained is the size of the failed batch held for redelivery.
	retained atomic.Int64
	// detached is set by the close sequence once the manager has let go
	// of the pair. Until then Runtime.retire leaves the pair open: the
	// manager may still be planning it, and planning requests quota
	// from the pool membership retire releases.
	detached atomic.Bool
	// folded is the pair's PairStats as last folded into rt.retired
	// (guarded by rt.pairMu; see Runtime.retire).
	folded PairStats

	// lastRate holds the float bits of the pair's latest predicted rate
	// (items/s), published on every plan so the placement controller can
	// read it without touching the manager-owned predictor.
	lastRate atomic.Uint64
}

// predictedRate returns the pair's last published predicted rate.
func (st *pairState) predictedRate() float64 {
	return math.Float64frombits(st.lastRate.Load())
}

// runOnOwner executes f on the goroutine of the manager that currently
// owns the pair, retrying if a migration moves the pair between the
// ownership read and the command running. Ownership changes only on the
// owner's goroutine, so once the command observes st.mgr == m it stays
// stable for f's whole duration. Returns false if the owning manager
// has shut down.
func (st *pairState) runOnOwner(f func(m *manager)) bool {
	for {
		m := st.mgr.Load()
		moved := false
		ok := m.run(func() {
			if st.mgr.Load() != m {
				moved = true
				return
			}
			f(m)
		})
		if !ok {
			return false
		}
		if !moved {
			return true
		}
	}
}

// drainCause is why a pair is drained, which decides how the drain is
// accounted.
type drainCause uint8

const (
	// causeRide: the drain rides other work, a half-open probe or a
	// migration quiesce.
	causeRide drainCause = iota
	// causeFinal: a close or shutdown drain, where a failed batch is
	// dropped instead of retained.
	causeFinal
	// causeTimer, causeForced: the manager woke for this pair, on its
	// slot timer or on an overflow.
	causeTimer
	causeForced
)

// drain runs one fault-isolated drain and accounts it: the one place a
// drain becomes an invocation and an EventDrain. wake is the Seq of the
// timer fire or forced wake that caused it. A drain the manager woke
// for counts even when it found nothing, because the wakeup was paid;
// any other drain counts only when the handler ran.
func (st *pairState) drain(rt *Runtime, cause drainCause, wake uint64) drainReport {
	rep := st.drainFault(cause == causeFinal)
	if rep.attempted > 0 || cause >= causeTimer {
		st.invocations.Add(1)
		rt.emit(Event{
			Kind:      EventDrain,
			Pair:      st.id,
			Manager:   st.mgr.Load().id,
			Wake:      wake,
			Items:     rep.delivered,
			Scheduled: cause == causeTimer,
		})
	}
	return rep
}

// breaker applies one drain outcome to the pair's closed circuit
// breaker: a clean invocation resets the failure count, a failed one
// adds to it, and the Kth consecutive failure opens the breaker, sets
// the first probe time and emits EventQuarantine. It reports whether
// the breaker opened.
func (st *pairState) breaker(rt *Runtime, rep drainReport, now simtime.Time) bool {
	if !rep.failed {
		if rep.attempted > 0 {
			st.consecFails = 0
			st.degraded.Store(false)
		}
		return false
	}
	st.consecFails++
	if st.breakerK <= 0 || st.consecFails < st.breakerK {
		return false
	}
	st.quarantined.Store(true)
	st.backoff = st.baseBackoff
	st.probeAt.Store(int64(now.Add(st.backoff)))
	st.quarantines.Add(1)
	rt.emit(Event{Kind: EventQuarantine, Pair: st.id, Manager: st.mgr.Load().id})
	return true
}

// probeDue reports whether the next half-open probe time has arrived.
func (st *pairState) probeDue(now simtime.Time) bool {
	return now >= simtime.Time(st.probeAt.Load())
}

// pairStats snapshots the pair's counters. The items that left are
// read before the items that entered: each was published before it
// could leave, so a snapshot taken mid-flight never shows ItemsOut +
// Dropped + HandedOff above ItemsIn.
func (st *pairState) pairStats() PairStats {
	s := PairStats{
		ItemsOut:     st.itemsOut.Load(),
		Dropped:      st.dropped.Load(),
		HandedOff:    st.handedOff.Load(),
		Invocations:  st.invocations.Load(),
		Overflows:    st.overflows.Load(),
		Kicks:        st.kicks.Load(),
		Panics:       st.panics.Load(),
		Errors:       st.herrors.Load(),
		Timeouts:     st.timeouts.Load(),
		Quarantines:  st.quarantines.Load(),
		Redeliveries: st.redeliveries.Load(),
	}
	s.ItemsIn = st.pushed()
	return s
}

// manager is a live core manager (§V-B): one goroutine owning a slot
// track, its reservations, and a single timer armed at the earliest
// reserved slot. Consumer handlers run serially on this goroutine —
// a core executes one consumer at a time, which is precisely what
// makes latching free.
type manager struct {
	rt  *Runtime
	id  int
	res map[int64][]*pairState

	cmds  chan func()
	kick  chan *pairState
	force chan *pairState
	done  chan struct{}

	timer *time.Timer

	// labelCtx carries the goroutine's pprof labels (pbpl_manager) so
	// per-drain pair labels can nest under them via pprof.Do; set once
	// at the top of loop.
	labelCtx context.Context

	// Per-manager wakeup counters (atomics: read by ManagerSnapshots and
	// summed by Runtime.Stats from any goroutine; there is no second
	// runtime-wide copy). They expose where the wakeups happen, which is
	// what the placement controller is trying to shrink.
	timerWakes  atomic.Uint64
	forcedWakes atomic.Uint64
}

func newManager(rt *Runtime, id int) *manager {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &manager{
		rt:    rt,
		id:    id,
		res:   make(map[int64][]*pairState),
		cmds:  make(chan func(), 16),
		kick:  make(chan *pairState, 128),
		force: make(chan *pairState, 128),
		done:  make(chan struct{}),
		timer: t,
	}
}

// Has implements core.Reservations.
func (m *manager) Has(slot int64) bool { return len(m.res[slot]) > 0 }

// PrevReserved implements core.Reservations.
func (m *manager) PrevReserved(before, after int64) (int64, bool) {
	best := int64(0)
	found := false
	for slot, ps := range m.res {
		if len(ps) == 0 {
			continue
		}
		if slot > after && slot < before && (!found || slot > best) {
			best = slot
			found = true
		}
	}
	return best, found
}

func (m *manager) earliest() (int64, bool) {
	best := int64(0)
	found := false
	for slot, ps := range m.res {
		if len(ps) == 0 {
			continue
		}
		if !found || slot < best {
			best = slot
			found = true
		}
	}
	return best, found
}

// loop is the manager goroutine: arm the timer at the earliest reserved
// slot, then react to timer expirations, overflow forces, producer
// kicks and control commands. On shutdown it drains every registered
// pair one final time.
func (m *manager) loop() {
	// Label the goroutine so pprof samples and runtime/trace attribute
	// time to this core manager.
	m.labelCtx = pprof.WithLabels(context.Background(),
		pprof.Labels("pbpl_manager", strconv.Itoa(m.id)))
	pprof.SetGoroutineLabels(m.labelCtx)
	defer m.finalDrain()
	for {
		var timerC <-chan time.Time
		if slot, ok := m.earliest(); ok {
			d := time.Until(m.rt.wallAt(m.rt.planner.Track.Start(slot)))
			if d < 0 {
				d = 0
			}
			if !m.timer.Stop() {
				select {
				case <-m.timer.C:
				default:
				}
			}
			m.timer.Reset(d)
			timerC = m.timer.C
		}

		select {
		case <-m.done:
			return
		case f := <-m.cmds:
			f()
		case p := <-m.kick:
			if p.mgr.Load() != m {
				// Stale: the pair migrated away while this kick was
				// queued; the migration's hand-off kick covers it.
				continue
			}
			m.onKick(p)
		case p := <-m.force:
			p.forcePending.Store(false)
			if p.mgr.Load() != m {
				// Stale after migration. The quiesce drain already
				// emptied the pair at hand-off; the next overflow
				// re-forces at the current owner.
				continue
			}
			if !p.closed.Load() {
				m.forcedWakes.Add(1)
				wake := m.rt.emit(Event{Kind: EventForcedWake, Pair: p.id, Manager: m.id, Items: 1})
				m.drainAndPlan(p, m.rt.now(), causeForced, wake)
			}
		case <-timerC:
			m.onTimer()
		}
	}
}

// onTimer fires every reserved slot whose start has passed. One timer
// expiration serving several pairs is the latching payoff — gather the
// due pairs first so the timeline can record one fire covering them
// all (and so reservations made while draining never join this round).
func (m *manager) onTimer() {
	now := m.rt.now()
	nowSlot := m.rt.planner.Track.Index(now)
	var due []*pairState
	for slot, ps := range m.res {
		if slot > nowSlot || len(ps) == 0 {
			continue
		}
		delete(m.res, slot)
		for _, p := range ps {
			p.reservedSlot = -1
			due = append(due, p)
		}
	}
	if len(due) == 0 {
		return
	}
	m.timerWakes.Add(1)
	wake := m.rt.emit(Event{Kind: EventTimerFire, Manager: m.id, Items: len(due)})
	var t0 int64
	o := m.rt.obs
	if o != nil && o.hist {
		t0 = o.clock.Precise()
	}
	for _, p := range due {
		m.drainAndPlan(p, now, causeTimer, wake)
	}
	if o != nil && o.hist {
		o.mgrDrain[m.id].Record(o.clock.Precise() - t0)
	}
}

// onKick handles a producer's arm request: a pair that had no
// reservation received its first item.
func (m *manager) onKick(p *pairState) {
	if p.closed.Load() || p.reservedSlot >= 0 {
		return
	}
	m.plan(p, m.rt.now())
}

// drainAndPlan runs one consumer invocation: drain through the handler
// (with fault isolation), settle the breaker, and reserve the next
// slot. cause is causeTimer or causeForced; wake is the Seq of the
// event that woke the manager (0 with no event sink). A quarantined
// pair never drains inline here: once its probe time arrives the
// half-open probe runs on its own goroutine, so a handler that is still
// broken (or still stalling) cannot re-block the other pairs sharing
// this manager.
func (m *manager) drainAndPlan(p *pairState, now simtime.Time, cause drainCause, wake uint64) {
	m.deregister(p)
	if p.quarantined.Load() {
		if !p.probeDue(now) {
			p.armed.Store(true)
			m.reserve(p, m.slotAfter(simtime.Time(p.probeAt.Load())))
			return
		}
		if !p.probing.Swap(true) {
			m.rt.wg.Add(1)
			go func() {
				defer m.rt.wg.Done()
				m.probe(p)
			}()
		}
		return
	}
	var rep drainReport
	pprof.Do(m.labelCtx, pprof.Labels("pbpl_pair", strconv.Itoa(p.id)), func(context.Context) {
		rep = p.drain(m.rt, cause, wake)
	})
	if rep.timedOut {
		// The handler overran its deadline inline on this goroutine.
		// Re-sample the clock so the next reservation charges the
		// stolen time instead of pretending the drain was punctual.
		now = m.rt.now()
	}
	if dt := now.Sub(p.lastDrain); dt > 0 {
		p.pred.Observe(float64(rep.dequeued) / dt.Seconds())
	}
	p.lastDrain = now
	m.settle(p, rep, now)
}

// settle applies one drain outcome to the pair's circuit breaker and
// schedules what happens next: a normal plan, a redelivery slot, or a
// quarantine probe. Runs on the owning manager's goroutine.
func (m *manager) settle(p *pairState, rep drainReport, now simtime.Time) {
	if p.closed.Load() {
		return
	}
	if p.quarantined.Load() {
		switch {
		case rep.failed:
			// Failed half-open probe: back off exponentially.
			p.consecFails++
			p.backoff *= 2
			if p.backoff > p.maxBackoff {
				p.backoff = p.maxBackoff
			}
			m.scheduleProbe(p, now)
		case rep.attempted == 0:
			// Nothing to prove (no retained batch, no probe fodder):
			// hold the breaker state and probe again without widening
			// the backoff.
			m.scheduleProbe(p, now)
		default:
			// Successful delivery: close the breaker.
			p.quarantined.Store(false)
			p.consecFails = 0
			p.backoff = 0
			p.degraded.Store(false)
			m.rt.stats.recoveries.Add(1)
			m.rt.emit(Event{Kind: EventRecover, Pair: p.id, Manager: m.id})
			m.plan(p, now)
		}
		return
	}
	if p.breaker(m.rt, rep, now) {
		m.scheduleProbe(p, now)
		return
	}
	if rep.failed && p.retained.Load() > 0 {
		// Redeliver the failed batch at the next slot after one slot's
		// grace.
		p.armed.Store(true)
		m.reserve(p, m.slotAfter(now.Add(p.baseBackoff)))
		return
	}
	m.plan(p, now)
}

// scheduleProbe reserves the pair's next half-open probe slot.
func (m *manager) scheduleProbe(p *pairState, now simtime.Time) {
	at := now.Add(p.backoff)
	p.probeAt.Store(int64(at))
	p.armed.Store(true)
	m.reserve(p, m.slotAfter(at))
}

// probe runs one half-open invocation of a quarantined pair on its own
// goroutine and settles the outcome back on the owning manager.
func (m *manager) probe(p *pairState) {
	rep := p.drain(m.rt, causeRide, 0)
	ok := p.runOnOwner(func(cur *manager) {
		p.probing.Store(false)
		cur.settle(p, rep, cur.rt.now())
	})
	if !ok {
		// Owner shut down mid-probe; Runtime.Close's final sweep picks
		// up anything the probe left behind.
		p.probing.Store(false)
	}
}

// slotAfter returns the first slot whose start is at or after t.
func (m *manager) slotAfter(t simtime.Time) int64 {
	return m.rt.planner.Track.Index(t) + 1
}

// plan consults the shared PBPL planner and applies its decision.
func (m *manager) plan(p *pairState, now simtime.Time) {
	if p.closed.Load() {
		return
	}
	if p.quarantined.Load() {
		// Hand-off or kick while quarantined: keep probing, never a
		// normal reservation.
		if p.reservedSlot < 0 && !p.probing.Load() {
			at := simtime.Time(p.probeAt.Load())
			if at < now {
				at = now
			}
			p.armed.Store(true)
			m.reserve(p, m.slotAfter(at))
		}
		return
	}
	if p.retained.Load() > 0 && p.reservedSlot < 0 {
		// A failed batch awaits redelivery (e.g. right after a
		// migration hand-off): schedule it ahead of normal planning.
		p.armed.Store(true)
		m.reserve(p, m.slotAfter(now.Add(p.baseBackoff)))
		return
	}
	rhat := p.pred.Predict()
	p.lastRate.Store(math.Float64bits(rhat))
	plan := p.planner.Next(now, rhat, p.pending(), m, func(want int) int {
		return m.rt.requestQuota(p.id, want)
	})
	if plan.Quota >= 0 {
		p.setQuota(plan.Quota)
	}
	if !plan.Reserve {
		// Going idle: allow producers to re-arm us, then re-check for
		// an item that raced in between the pending() read and the
		// flag flip.
		m.rt.emit(Event{Kind: EventIdle, Pair: p.id, Manager: m.id})
		p.armed.Store(false)
		if p.pending() > 0 && !p.armed.Swap(true) {
			m.plan(p, now)
		}
		return
	}
	p.armed.Store(true)
	m.rt.emit(Event{Kind: EventReserve, Pair: p.id, Manager: m.id, Slot: plan.Slot})
	m.reserve(p, plan.Slot)
}

func (m *manager) reserve(p *pairState, slot int64) {
	if p.reservedSlot == slot {
		return
	}
	m.deregister(p)
	m.res[slot] = append(m.res[slot], p)
	p.reservedSlot = slot
}

func (m *manager) deregister(p *pairState) {
	if p.reservedSlot < 0 {
		return
	}
	list := m.res[p.reservedSlot]
	for i, other := range list {
		if other == p {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(m.res, p.reservedSlot)
	} else {
		m.res[p.reservedSlot] = list
	}
	p.reservedSlot = -1
}

// finalDrain empties every pair still holding items at shutdown. These
// drains are final: a batch whose handler fails here is dropped and
// accounted in ItemsDropped, never retained.
func (m *manager) finalDrain() {
	seen := map[*pairState]bool{}
	for _, ps := range m.res {
		for _, p := range ps {
			seen[p] = true
		}
	}
	// Also catch pairs with pending items but no reservation (queued
	// kicks/forces that will never be served).
	for {
		select {
		case p := <-m.kick:
			seen[p] = true
			continue
		case p := <-m.force:
			seen[p] = true
			continue
		default:
		}
		break
	}
	for p := range seen {
		p.reservedSlot = -1
	}
	m.res = map[int64][]*pairState{}
	for p := range seen {
		p.drain(m.rt, causeFinal, 0)
	}
}

// run executes f on the manager goroutine and waits for it; used for
// registration and close sequencing. Returns false if the manager has
// shut down.
func (m *manager) run(f func()) bool {
	ack := make(chan struct{})
	select {
	case m.cmds <- func() { f(); close(ack) }:
	case <-m.done:
		return false
	}
	select {
	case <-ack:
		return true
	case <-m.done:
		return false
	}
}
