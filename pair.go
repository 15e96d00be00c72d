package repro

import (
	"context"
	"runtime/trace"
	"sync"
	"time"

	"repro/internal/ring"
)

// Pair is one producer-consumer pair: a bounded elastic buffer feeding
// a batch handler. The buffer is a wait-free single-producer queue, so
// by default exactly one goroutine may call Put/PutBatch at a time (the
// paper pairs each consumer with one producer); pass
// ConcurrentProducers to Open when several goroutines share the
// producer side. The handler runs on the pair's core-manager
// goroutine.
type Pair[T any] struct {
	rt      *Runtime
	st      *pairState
	q       *ring.Unbounded[T]
	handler func(context.Context, []T) error

	// putMu serializes producers under ConcurrentProducers, so the
	// queue and the latency-stamp sampling (pairObs.enqueued and the
	// stamp ring) keep seeing one producer at a time. Nil on the
	// default single-producer path.
	putMu *sync.Mutex

	// drainMu serializes drains. They normally all happen on the
	// manager goroutine, but quarantine probes run on their own
	// goroutine, and Pair.Close racing Runtime.Close can fall back to
	// draining on the caller while the manager's final drain is still
	// running.
	drainMu sync.Mutex
	scratch []T
	// retry holds a batch whose handler invocation failed, awaiting
	// bounded redelivery (guarded by drainMu; mirrored in the
	// st.retained atomic for lock-free snapshots).
	retry         []T
	retryAttempts int

	// Latency instrumentation scratch (guarded by drainMu like retry):
	// stampScratch holds the enqueue stamps popped for the batch being
	// drained; retryStamps holds the stamps of a retained batch so a
	// redelivered item's done-latency covers its retry delay too. Both
	// stay empty unless the runtime was built WithHistograms.
	stampScratch []int64
	retryStamps  []int64
}

// ID returns the pair's runtime-assigned id, the key that joins this
// pair to its Runtime.PairSnapshots entry and observer events.
func (p *Pair[T]) ID() int { return p.st.id }

// event emits a runtime event for this pair.
func (p *Pair[T]) event(kind EventKind, items int) {
	p.rt.emit(Event{Kind: kind, Pair: p.st.id, Manager: p.st.mgr.Load().id, Items: items})
}

// drainFault runs one fault-isolated consumer invocation: redeliver a
// previously failed batch first (those items are older than anything
// still queued, preserving FIFO), then drain and deliver the fresh
// batch. Failed batches are retained for bounded redelivery unless
// final is set (shutdown/close paths, where retention would strand
// items): then they are dropped and accounted in Stats.ItemsDropped.
// Every item that entered the pair leaves as ItemsOut or ItemsDropped,
// never silently.
func (p *Pair[T]) drainFault(final bool) drainReport {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	var rep drainReport

	if len(p.retry) > 0 {
		p.retryAttempts++
		p.st.redeliveries.Add(1)
		p.event(EventRedeliver, len(p.retry))
		if p.invoke(p.retry, &rep) {
			p.deliver(len(p.retry), &rep)
			// Redelivered items' done-latency spans the retry delay:
			// their stamps were kept alongside the retained batch.
			p.recordDone(p.retryStamps)
			p.clearRetry()
		} else if final || p.retryAttempts >= p.st.maxRedeliver {
			p.dropBatch(len(p.retry), &rep)
			p.clearRetry()
			if !final {
				return rep
			}
		} else {
			// Keep the batch for the next redelivery slot or probe.
			return rep
		}
	}

	batch := p.q.DrainTo(p.scratch[:0])
	// scratch is presized to the segment arena's capacity, so DrainTo
	// normally fills it in place; persist it anyway so a growth forced
	// by lent capacity is paid once, not on every drain.
	p.scratch = batch
	rep.dequeued = len(batch)
	if len(batch) == 0 {
		return rep
	}
	stamps := p.recordWait(len(batch))
	if p.invoke(batch, &rep) {
		p.deliver(len(batch), &rep)
		p.recordDone(stamps)
		return rep
	}
	if final || p.st.maxRedeliver <= 0 {
		p.dropBatch(len(batch), &rep)
		return rep
	}
	// Retain a copy for redelivery: batch aliases scratch, which the
	// next drain reuses (likewise stamps and stampScratch).
	p.retry = append(p.retry[:0], batch...)
	p.retryStamps = append(p.retryStamps[:0], stamps...)
	p.retryAttempts = 0
	p.st.retained.Store(int64(len(batch)))
	return rep
}

// recordWait pops the enqueue stamps of the batch being drained (the
// drain empties the whole queue, so every ring stamp belongs to it —
// at the sampling stride that is at most n/LatencySampleEvery, and
// fewer when the ring overflowed; the drop is counted there) and
// records each sampled item's wait (enqueue→handler-start) latency.
// Pairing is by position, which only matters to the histogram, not to
// the items. Nil unless WithHistograms.
func (p *Pair[T]) recordWait(n int) []int64 {
	po := p.st.obs
	if po == nil || n == 0 {
		return nil
	}
	dst := p.stampScratch[:min(n, cap(p.stampScratch))]
	s := dst[:po.stamps.PopBatch(dst)]
	po.wait.RecordSince(p.rt.obs.clock.Precise(), s)
	return s
}

// recordDone records each delivered item's done (enqueue→handler-done)
// latency for the stamps captured by recordWait.
func (p *Pair[T]) recordDone(stamps []int64) {
	po := p.st.obs
	if po == nil || len(stamps) == 0 {
		return
	}
	po.done.RecordSince(p.rt.obs.clock.Precise(), stamps)
}

// invoke hands one batch to the handler under panic recovery and, when
// HandlerTimeout is set, a watchdog. It reports whether the
// batch was handled cleanly; failures (panic, error, overrun) are
// charged to the pair's counters here.
func (p *Pair[T]) invoke(batch []T, rep *drainReport) bool {
	rep.attempted += len(batch)
	ctx := context.Background()
	if trace.IsEnabled() {
		// Task + region let `go tool trace` attribute handler time to
		// this pair; the Logf carries the batch size.
		var task *trace.Task
		ctx, task = trace.NewTask(ctx, "pbpl.invoke")
		defer task.End()
		trace.Logf(ctx, "pbpl", "pair=%d batch=%d", p.st.id, len(batch))
		defer trace.StartRegion(ctx, "pbpl.handler").End()
	}
	var watchdog *time.Timer
	if d := p.st.handlerTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
		n := len(batch)
		watchdog = time.AfterFunc(d, func() {
			// The handler is still running past its deadline. Flag it
			// now (not at return, which may never come) so snapshots
			// and the event stream see the overrun while it happens.
			p.st.degraded.Store(true)
			p.st.timeouts.Add(1)
			p.event(EventOverrun, n)
		})
	}
	start := time.Now()
	panicked := false
	err := func() (err error) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		return p.handler(ctx, batch)
	}()
	if watchdog != nil {
		watchdog.Stop()
	}
	overran := p.st.handlerTimeout > 0 && time.Since(start) >= p.st.handlerTimeout
	if panicked {
		p.st.panics.Add(1)
	}
	if err != nil {
		p.st.herrors.Add(1)
	}
	if overran {
		rep.timedOut = true
	}
	if panicked || err != nil || overran {
		rep.failed = true
		return false
	}
	return true
}

// deliver credits n successfully handled items.
func (p *Pair[T]) deliver(n int, rep *drainReport) {
	rep.delivered += n
	p.st.itemsOut.Add(uint64(n))
}

// dropBatch accounts n discarded items (redelivery exhausted, or a
// failure on a final drain).
func (p *Pair[T]) dropBatch(n int, rep *drainReport) {
	rep.dropped += n
	p.st.dropped.Add(uint64(n))
	p.event(EventDrop, n)
}

func (p *Pair[T]) clearRetry() {
	p.retry = p.retry[:0]
	p.retryStamps = p.retryStamps[:0]
	p.retryAttempts = 0
	p.st.retained.Store(0)
}

// Put buffers one item. It never blocks: when the pair's elastic quota
// is exhausted it forces an immediate drain (the paper's overflow
// wakeup) and returns ErrOverflow without enqueueing — retry or shed.
// On a quarantined pair (open circuit breaker) Put fails fast with
// ErrQuarantined instead of buffering items that cannot drain — except
// in the brief window once the next half-open probe is due, when items
// are admitted as probe fodder so a recovered handler can prove itself.
// A Put that returns nil never strands its item, even when Close,
// Handoff or Runtime.Close races it: an item pushed after their final
// drain is drained on the caller before Put returns.
func (p *Pair[T]) Put(v T) error {
	if p.st.closed.Load() || p.rt.closed.Load() {
		return ErrClosed
	}
	if p.st.quarantined.Load() && !p.st.probeDue(p.rt.now()) {
		return ErrQuarantined
	}
	p.lockProducers()
	ok := p.q.Push(v)
	if po := p.st.obs; ok && po != nil {
		po.enqueued++
		if po.enqueued&stampSampleMask == 0 {
			po.stamp(p.rt.obs.clock.Now())
		}
	}
	p.unlockProducers()
	if ok {
		p.afterPush()
		return nil
	}
	p.st.overflows.Add(1)
	p.forceDrain()
	return ErrOverflow
}

// PutBatch buffers up to len(items) items with a single quota
// negotiation and at most one manager kick, where a Put loop pays an
// armed-check (and possibly a kick) per item. It returns how many
// items were accepted. n < len(items) comes with ErrOverflow (the
// quota filled; a forced drain is already underway — retry the rest or
// shed); n == 0 with ErrClosed or ErrQuarantined mirrors Put.
func (p *Pair[T]) PutBatch(items []T) (int, error) {
	if len(items) == 0 {
		return 0, nil
	}
	if p.st.closed.Load() || p.rt.closed.Load() {
		return 0, ErrClosed
	}
	if p.st.quarantined.Load() && !p.st.probeDue(p.rt.now()) {
		return 0, ErrQuarantined
	}
	p.lockProducers()
	n := p.q.PushBatch(items)
	if po := p.st.obs; n > 0 && po != nil {
		// One stamp per sampling-stride boundary the batch crossed.
		po.enqueued += uint64(n)
		end := po.enqueued
		k := int(end>>stampSampleShift) - int((end-uint64(n))>>stampSampleShift)
		if k > 0 {
			now := p.rt.obs.clock.Now()
			for i := 0; i < k; i++ {
				po.stamp(now)
			}
		}
	}
	p.unlockProducers()
	if n > 0 {
		p.afterPush()
	}
	if n < len(items) {
		p.st.overflows.Add(uint64(len(items) - n))
		p.forceDrain()
		return n, ErrOverflow
	}
	return n, nil
}

// lockProducers takes the producer lock of a ConcurrentProducers pair;
// it is a no-op on the single-producer path. Only the enqueue itself
// runs under it: kicks, forced drains and the close-race drain happen
// after unlockProducers.
func (p *Pair[T]) lockProducers() {
	if p.putMu != nil {
		p.putMu.Lock()
	}
}

func (p *Pair[T]) unlockProducers() {
	if p.putMu != nil {
		p.putMu.Unlock()
	}
}

// afterPush follows an accepted push. Normally it kicks the manager.
// When Pair.Close, Pair.Handoff or Runtime.Close raced in after the
// entry check, their final drain may already have run, so it drains on
// the caller rather than strand the item, and retires the pair again so
// the item is counted in and out once. The item was accepted and
// handled, so Put still reports success.
func (p *Pair[T]) afterPush() {
	if !p.st.closed.Load() && !p.rt.closed.Load() {
		p.kickIfUnarmed()
		return
	}
	p.st.drain(p.rt, causeFinal, 0)
	p.rt.retire(p.st)
}

// kickIfUnarmed arms the pair and wakes its manager if no reservation
// is pending.
func (p *Pair[T]) kickIfUnarmed() {
	if !p.st.armed.Swap(true) {
		p.st.kicks.Add(1)
		mgr := p.st.mgr.Load()
		select {
		case mgr.kick <- p.st:
		case <-mgr.done:
			p.st.armed.Store(false)
		}
	}
}

// forceDrain requests an overflow-forced drain, coalescing requests.
func (p *Pair[T]) forceDrain() {
	if !p.st.forcePending.Swap(true) {
		mgr := p.st.mgr.Load()
		select {
		case mgr.force <- p.st:
		case <-mgr.done:
			p.st.forcePending.Store(false)
		}
	}
}

// PairStats is a snapshot of one pair's counters.
type PairStats struct {
	ItemsIn     uint64
	ItemsOut    uint64
	Invocations uint64
	Overflows   uint64
	// Kicks counts producer wake-ups of the manager (first item into an
	// unarmed pair). PutBatch pays at most one per call.
	Kicks uint64
	// Panics / Errors / Timeouts count handler failures by kind
	// (recovered panics, non-nil returns, watchdog deadline overruns).
	Panics   uint64
	Errors   uint64
	Timeouts uint64
	// Quarantines counts breaker-open transitions; Redeliveries counts
	// re-offered failed batches; Dropped counts items discarded after
	// redelivery exhaustion (ItemsIn == ItemsOut + Dropped + HandedOff
	// once closed).
	Quarantines  uint64
	Redeliveries uint64
	Dropped      uint64
	// HandedOff counts items extracted unprocessed by Pair.Handoff for
	// cross-process migration.
	HandedOff uint64
}

// fold returns s + (cur − prev), field by field: the running total a
// retired pair's counts accumulate into.
func (s PairStats) fold(cur, prev PairStats) PairStats {
	return PairStats{
		ItemsIn:      s.ItemsIn + cur.ItemsIn - prev.ItemsIn,
		ItemsOut:     s.ItemsOut + cur.ItemsOut - prev.ItemsOut,
		Invocations:  s.Invocations + cur.Invocations - prev.Invocations,
		Overflows:    s.Overflows + cur.Overflows - prev.Overflows,
		Kicks:        s.Kicks + cur.Kicks - prev.Kicks,
		Panics:       s.Panics + cur.Panics - prev.Panics,
		Errors:       s.Errors + cur.Errors - prev.Errors,
		Timeouts:     s.Timeouts + cur.Timeouts - prev.Timeouts,
		Quarantines:  s.Quarantines + cur.Quarantines - prev.Quarantines,
		Redeliveries: s.Redeliveries + cur.Redeliveries - prev.Redeliveries,
		Dropped:      s.Dropped + cur.Dropped - prev.Dropped,
		HandedOff:    s.HandedOff + cur.HandedOff - prev.HandedOff,
	}
}

// Stats returns a snapshot of the pair's counters. They keep counting
// after Close for an item a racing Put pushed late (see Pair.Put).
func (p *Pair[T]) Stats() PairStats {
	return p.st.pairStats()
}

// Len returns the number of buffered items (excluding a failed batch
// retained for redelivery; see Runtime.PairSnapshots' Retained).
func (p *Pair[T]) Len() int { return p.q.Len() }

// Quota returns the pair's current elastic buffer capacity.
func (p *Pair[T]) Quota() int { return p.q.Quota() }

// Quarantined reports whether the pair's circuit breaker is open.
func (p *Pair[T]) Quarantined() bool { return p.st.quarantined.Load() }

// Close drains any remaining items through the handler, releases the
// pair's pool capacity and detaches it from its manager. Further Puts
// return ErrClosed. A batch that fails during this final drain is
// dropped and accounted (never retained), so after Close the pair's
// ItemsIn == ItemsOut + Dropped. Close is idempotent.
func (p *Pair[T]) Close() error {
	p.close(func() { p.st.drain(p.rt, causeFinal, 0) })
	return nil
}

// close is the one close sequence Close and Handoff share: mark the pair
// closed, detach it from its manager and empty it with final on the
// manager's goroutine (or on the caller once the manager has stopped),
// then retire it. It reports false if the pair was already closed.
func (p *Pair[T]) close(final func()) bool {
	if p.st.closed.Swap(true) {
		return false
	}
	ran := p.st.runOnOwner(func(m *manager) {
		m.deregister(p.st)
		final()
	})
	if !ran {
		// Manager already stopped: it drained (or will drain) every
		// pair it knew in finalDrain; catch only what is left here.
		final()
	}
	p.st.detached.Store(true)
	p.rt.retire(p.st)
	p.event(EventPairClose, 0)
	return true
}
