package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

// rec is a stand-in record: the ring is generic, and the root package
// stores its runtime Event in it.
type rec struct {
	Seq   uint64
	Kind  string
	Wake  uint64
	Items int
}

func TestTimelineAppendDump(t *testing.T) {
	tl := NewTimeline[rec](16)
	var seq uint64
	add := func(r rec) uint64 {
		seq++
		r.Seq = seq
		tl.Append(seq, r)
		return seq
	}
	fire := add(rec{Kind: "timer-fire", Items: 2})
	add(rec{Kind: "drain", Wake: fire, Items: 5})
	add(rec{Kind: "drain", Wake: fire, Items: 7})
	recs := tl.Dump()
	if len(recs) != 3 {
		t.Fatalf("dump len = %d, want 3", len(recs))
	}
	if recs[0].Kind != "timer-fire" {
		t.Fatalf("first record kind = %v, want timer-fire", recs[0].Kind)
	}
	latched := 0
	for _, r := range recs[1:] {
		if r.Kind == "drain" && r.Wake == fire {
			latched++
		}
	}
	if latched != 2 {
		t.Fatalf("latched drains = %d, want 2", latched)
	}
}

// TestTimelineLossBound: appending far more than capacity keeps exactly
// the most recent Cap records — the documented loss bound.
func TestTimelineLossBound(t *testing.T) {
	tl := NewTimeline[rec](64)
	const total = 1000
	for i := 1; i <= total; i++ {
		tl.Append(uint64(i), rec{Seq: uint64(i), Items: i})
	}
	recs := tl.Dump()
	if len(recs) != tl.Cap() {
		t.Fatalf("dump len = %d, want capacity %d", len(recs), tl.Cap())
	}
	// Must be the newest Cap seqs, contiguous and ordered.
	want := uint64(total - tl.Cap() + 1)
	for i, r := range recs {
		if r.Seq != want+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, want+uint64(i))
		}
	}
}

// TestTimelineConcurrent: concurrent appends lose nothing beyond the
// ring bound, and Dump stays consistent while appends race (run under
// -race in make verify).
func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline[rec](1024)
	const workers = 8
	const per = 400 // workers*per > cap, so overwrite paths run too
	var seq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s := seq.Add(1)
				tl.Append(s, rec{Seq: s, Items: i})
				if i%64 == 0 {
					tl.Dump()
				}
			}
		}()
	}
	wg.Wait()
	if got := tl.Appended(); got != workers*per {
		t.Fatalf("appended = %d, want %d", got, workers*per)
	}
	recs := tl.Dump()
	if len(recs) != tl.Cap() {
		t.Fatalf("dump len = %d, want %d", len(recs), tl.Cap())
	}
	seen := make(map[uint64]bool, len(recs))
	for i, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
		if i > 0 && recs[i-1].Seq >= r.Seq {
			t.Fatalf("dump not ordered at %d", i)
		}
	}
}
