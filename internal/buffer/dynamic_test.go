package buffer

import (
	"math/rand"
	"testing"
)

func TestEmptyPoolAddRemove(t *testing.T) {
	p := NewEmptyPool(50, 2)
	if p.Global() != 0 {
		t.Fatalf("fresh pool: global=%d", p.Global())
	}
	if err := p.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(1); err != nil {
		t.Fatal(err)
	}
	if p.Global() != 100 || p.Quota(0) != 50 {
		t.Fatalf("after adds: global=%d quota0=%d", p.Global(), p.Quota(0))
	}
	if err := p.Add(0); err == nil {
		t.Fatal("duplicate add should fail")
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(0); err != nil {
		t.Fatal(err)
	}
	if p.Global() != 50 {
		t.Fatalf("after remove: global=%d", p.Global())
	}
	if err := p.Remove(0); err == nil {
		t.Fatal("double remove should fail")
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPoolLentCapacityStays(t *testing.T) {
	p := NewEmptyPool(50, 1)
	p.Add(0)
	p.Add(1)
	// 0 shrinks to 10, 1 borrows up to 90.
	p.Request(0, 10)
	if got := p.Request(1, 200); got != 90 {
		t.Fatalf("borrowed quota = %d, want 90", got)
	}
	// 0 leaves holding 10: the pool shrinks by 10 only; 1 keeps its 90.
	if err := p.Remove(0); err != nil {
		t.Fatal(err)
	}
	if p.Global() != 90 || p.Quota(1) != 90 {
		t.Fatalf("global=%d quota1=%d", p.Global(), p.Quota(1))
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyPoolInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEmptyPool(0, 1)
}

func TestFixedPoolRejectsAdd(t *testing.T) {
	p := NewPool(10, 2, 1)
	if err := p.Add(5); err == nil {
		t.Fatal("fixed pool should reject Add")
	}
}

func TestEmptyPoolMinFloorClamp(t *testing.T) {
	p := NewEmptyPool(4, 10) // floor above b0 clamps to b0
	p.Add(0)
	if got := p.Request(0, 1); got != 4 {
		t.Fatalf("granted %d, want clamped floor 4", got)
	}
}

// Property: random add/remove/request churn never breaks the invariant.
func TestPropertyDynamicChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := NewEmptyPool(20, 2)
	live := map[int]bool{}
	next := 0
	for op := 0; op < 2000; op++ {
		switch rng.Intn(5) {
		case 0:
			if err := p.Add(next); err != nil {
				t.Fatal(err)
			}
			live[next] = true
			next++
		case 1:
			for id := range live {
				if err := p.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(live, id)
				break
			}
		default:
			for id := range live {
				p.Request(id, rng.Intn(60))
				break
			}
		}
		if err := p.CheckInvariant(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}
