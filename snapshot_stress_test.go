package repro

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPairSnapshotsChurn hammers PairSnapshots (and the other observer
// surfaces the daemon scrapes) while pairs concurrently open, produce,
// migrate, and close. The snapshot path reads pair state outside
// pairMu, so this is the regression net for that design: under -race it
// proves every read is properly synchronized, and the assertions prove
// a snapshot is internally consistent even mid-churn.
func TestPairSnapshotsChurn(t *testing.T) {
	rt, err := New(
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(32),
		WithManagers(4),
		WithMaxPairs(64),
		WithConsolidation(ConsolidationConfig{Interval: 2 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churners: each repeatedly opens a pair, pushes a burst, closes.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				p, err := Open(rt, Batch(func([]int) {}))
				if err != nil {
					if err == ErrClosed {
						return
					}
					// Pair table momentarily full — that's churn working.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				for v := 0; v < 20; v++ {
					_ = p.Put(v)
				}
				if err := p.Close(); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			}
		}()
	}

	// Scrapers: the daemon's /metrics + /statusz read path.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snaps := rt.PairSnapshots()
				for i, s := range snaps {
					if i > 0 && snaps[i-1].ID >= s.ID {
						t.Errorf("snapshots unordered: %d before %d", snaps[i-1].ID, s.ID)
						return
					}
					if s.Manager < 0 || s.Manager >= 4 {
						t.Errorf("pair %d: manager %d out of range", s.ID, s.Manager)
						return
					}
					if s.ItemsOut > s.ItemsIn {
						t.Errorf("pair %d: out %d > in %d", s.ID, s.ItemsOut, s.ItemsIn)
						return
					}
				}
				total := 0
				for _, m := range rt.ManagerSnapshots() {
					total += m.Pairs
				}
				if total < 0 || total > 64 {
					t.Errorf("manager pair total %d out of range", total)
					return
				}
				_ = rt.Placement()
				_ = rt.Stats()
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// TestStatsSnapshotsChurn is TestPairSnapshotsChurn's runtime-wide
// twin: while producers feed small-buffered pairs (Put and PutBatch, in
// both producer modes, so forced drains run constantly) and other pairs
// churn through open, hand-off and close, every Stats snapshot must
// show no more items out than in. Put publishes an item before any
// drain can count it out, so only a snapshot that reads ItemsIn ahead
// of the outs, or counts an item in after publishing it, can break
// ItemsOut + ItemsDropped + HandedOff <= ItemsIn. Every Stats field must
// also be non-decreasing from one snapshot to the next, closed pairs
// included (the power-cap controller and pcd's Prometheus counters take
// uint64 deltas of them), and after Runtime.Close the ledger must
// balance exactly.
func TestStatsSnapshotsChurn(t *testing.T) {
	rt, err := New(
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(8),
		WithManagers(2),
		WithMaxPairs(32),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		var opts []PairOption
		if g%2 == 1 {
			opts = append(opts, ConcurrentProducers())
		}
		p, err := Open(rt, Batch(func([]int) {}), opts...)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := []int{1, 2, 3, 4, 5}
			for v := 0; !stop.Load(); v++ {
				if g < 2 {
					_ = p.Put(v)
				} else {
					_, _ = p.PutBatch(batch)
				}
			}
		}()
	}
	// Churners: open, fill, then close or hand off.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p, err := Open(rt, Batch(func([]int) {}))
				if err != nil {
					time.Sleep(50 * time.Microsecond)
					continue
				}
				for v := 0; v < 16; v++ {
					_ = p.Put(v)
				}
				if i%2 == 0 {
					_ = p.Close()
				} else {
					_, _ = p.Handoff()
				}
			}
		}()
	}

	fail := func(format string, args ...any) {
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}
	snapshots := 0
	var prev Stats
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := rt.Stats()
		if out := s.ItemsOut + s.ItemsDropped + s.HandedOff; out > s.ItemsIn {
			fail("snapshot %d: out %d + dropped %d + handed off %d = %d > in %d",
				snapshots, s.ItemsOut, s.ItemsDropped, s.HandedOff, out, s.ItemsIn)
		}
		if field, was, now := decreasedField(prev, s); field != "" {
			fail("snapshot %d: %s fell from %d to %d", snapshots, field, was, now)
		}
		prev = s
		snapshots++
	}
	stop.Store(true)
	wg.Wait()
	if snapshots < 100 {
		t.Fatalf("only %d snapshots, want >= 100", snapshots)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	if field, was, now := decreasedField(prev, s); field != "" {
		t.Fatalf("after Close: %s fell from %d to %d", field, was, now)
	}
	if s.ItemsIn != s.ItemsOut+s.ItemsDropped+s.HandedOff {
		t.Fatalf("after Close: in %d != out %d + dropped %d + handed off %d",
			s.ItemsIn, s.ItemsOut, s.ItemsDropped, s.HandedOff)
	}
}

// decreasedField returns the first Stats field that is smaller in cur
// than in prev, with both values, or "" when none is.
func decreasedField(prev, cur Stats) (string, uint64, uint64) {
	pv, cv := reflect.ValueOf(prev), reflect.ValueOf(cur)
	for i := 0; i < pv.NumField(); i++ {
		if was, now := pv.Field(i).Uint(), cv.Field(i).Uint(); now < was {
			return pv.Type().Field(i).Name, was, now
		}
	}
	return "", 0, 0
}

// TestRequestQuotaInvariantUnderResize drives the elastic buffer pool
// from four manager goroutines at once — pairs with very different
// rates force constant up/down renegotiation — while an auditor samples
// the pool under poolMu. The paper's Fig. 8 invariant (Σ Bᵢ ≤ Bg, every
// Bᵢ ≥ the floor) must hold at every observation, not just at rest.
func TestRequestQuotaInvariantUnderResize(t *testing.T) {
	rt, err := New(
		WithSlotSize(time.Millisecond),
		WithMaxLatency(8*time.Millisecond),
		WithBuffer(16),
		WithManagers(4),
		WithMaxPairs(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const pairsN = 8
	pairs := make([]*Pair[int], pairsN)
	for i := range pairs {
		if pairs[i], err = Open(rt, Batch(func([]int) {})); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Rates spread two orders of magnitude so predictions — and
			// therefore quota requests — keep diverging and crossing.
			gap := time.Duration(1+i*25) * 10 * time.Microsecond
			for v := 0; !stop.Load(); v++ {
				_ = p.Put(v)
				time.Sleep(gap)
			}
		}()
	}

	observations := 0
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		rt.poolMu.Lock()
		err := rt.pool.CheckInvariant()
		rt.poolMu.Unlock()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("observation %d: %v", observations, err)
		}
		observations++
		time.Sleep(200 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	if observations < 100 {
		t.Fatalf("only %d pool observations, want ≥ 100", observations)
	}
	rt.poolMu.Lock()
	err = rt.pool.CheckInvariant()
	rt.poolMu.Unlock()
	if err != nil {
		t.Fatalf("final: %v", err)
	}
}

// TestPutRacesPairClose races a producer (Put, or PutBatch on odd
// iterations) against Pair.Close and Pair.Handoff landing 0–49 µs after
// it starts. However the close lands, every item a Put or PutBatch
// accepted must reach the handler, or be counted in Dropped or returned
// by Handoff, and the runtime-wide Stats must count each such item in
// and out exactly once.
func TestPutRacesPairClose(t *testing.T) {
	rt, err := New(
		WithSlotSize(time.Millisecond),
		WithMaxLatency(10*time.Millisecond),
		WithBuffer(16),
		WithManagers(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	for _, mode := range []string{"close", "handoff"} {
		t.Run(mode, func(t *testing.T) {
			for i := 0; i < iters; i++ {
				var handled atomic.Uint64
				p, err := Open(rt, Batch(func(b []int) { handled.Add(uint64(len(b))) }))
				if err != nil {
					t.Fatal(err)
				}
				var accepted uint64
				done := make(chan struct{})
				go func() {
					defer close(done)
					// Odd iterations produce through PutBatch, which
					// shares Put's post-push close check.
					batch := []int{1, 2, 3}
					for v := 0; ; v++ {
						var n int
						var err error
						if i%2 == 1 {
							n, err = p.PutBatch(batch)
						} else if err = p.Put(v); err == nil {
							n = 1
						}
						accepted += uint64(n)
						if err == ErrClosed {
							return
						}
					}
				}()
				time.Sleep(time.Duration(i%50) * time.Microsecond)
				handedOff := 0
				if mode == "close" {
					_ = p.Close()
				} else {
					items, err := p.Handoff()
					if err != nil {
						t.Fatal(err)
					}
					handedOff = len(items)
				}
				<-done
				ps := p.Stats()
				if got := handled.Load() + ps.Dropped + uint64(handedOff); got != accepted {
					t.Fatalf("iteration %d: %d accepted, %d handled + %d dropped + %d handed off (pair in=%d out=%d)",
						i, accepted, handled.Load(), ps.Dropped, handedOff, ps.ItemsIn, ps.ItemsOut)
				}
				if ps.ItemsIn != accepted || ps.HandedOff != uint64(handedOff) {
					t.Fatalf("iteration %d: pair in=%d handed off=%d, want %d and %d",
						i, ps.ItemsIn, ps.HandedOff, accepted, handedOff)
				}
				s := rt.Stats()
				if out := s.ItemsOut + s.ItemsDropped + s.HandedOff; out != s.ItemsIn {
					t.Fatalf("iteration %d: runtime in=%d, out %d + dropped %d + handed off %d = %d",
						i, s.ItemsIn, s.ItemsOut, s.ItemsDropped, s.HandedOff, out)
				}
			}
		})
	}
}
