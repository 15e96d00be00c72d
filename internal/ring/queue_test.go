package ring

import (
	"testing"
	"testing/quick"
)

func TestQueueBasics(t *testing.T) {
	var q Queue[int]
	if _, ok := q.PopFront(); ok {
		t.Fatal("empty pop should fail")
	}
	q.Push(1)
	q.Push(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, _ := q.PopFront(); v != 1 {
		t.Fatalf("PopFront = %d", v)
	}
	out := q.Drain()
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("Drain = %v", out)
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestQueueCompaction(t *testing.T) {
	var q Queue[int]
	// Interleave pushes and pops so the head index grows large enough
	// to trigger compaction, then verify FIFO integrity.
	next, expect := 0, 0
	for round := 0; round < 5000; round++ {
		q.Push(next)
		next++
		q.Push(next)
		next++
		if v, ok := q.PopFront(); !ok || v != expect {
			t.Fatalf("round %d: PopFront = %d, want %d", round, v, expect)
		}
		expect++
	}
	for expect < next {
		v, ok := q.PopFront()
		if !ok || v != expect {
			t.Fatalf("tail drain: got %d,%v want %d", v, ok, expect)
		}
		expect++
	}
}

// Property: Queue matches a slice model under arbitrary op sequences.
func TestPropertyQueueModel(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue[int]
		var model []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				q.Push(next)
				model = append(model, next)
				next++
			case 1:
				v, ok := q.PopFront()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 2:
				got := q.Drain()
				if len(got) != len(model) {
					return false
				}
				for i := range got {
					if got[i] != model[i] {
						return false
					}
				}
				model = model[:0]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
