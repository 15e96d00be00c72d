package buffer

import (
	"math/rand"
	"testing"
)

// newPoolOf returns a pool with consumers 0..m-1 added, the shape the
// simulator builds for its fixed pair set.
func newPoolOf(b0, m, minPer int) *Pool {
	p := NewPool(b0, minPer)
	for id := 0; id < m; id++ {
		if err := p.Add(id); err != nil {
			panic(err)
		}
	}
	return p
}

func TestNewPoolInitialState(t *testing.T) {
	p := newPoolOf(25, 4, 1)
	if p.Global() != 100 {
		t.Fatalf("Global = %d", p.Global())
	}
	if p.Available() != 0 {
		t.Fatalf("Available = %d", p.Available())
	}
	for id := 0; id < 4; id++ {
		if p.Quota(id) != 25 {
			t.Fatalf("Quota(%d) = %d", id, p.Quota(id))
		}
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPoolInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPool(0, 1)
}

func TestUnknownConsumerPanics(t *testing.T) {
	p := newPoolOf(10, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Quota(5)
}

func TestDownsizeFreesSpace(t *testing.T) {
	p := newPoolOf(50, 2, 1)
	granted := p.Request(0, 10)
	if granted != 10 {
		t.Fatalf("granted = %d", granted)
	}
	if p.Available() != 40 {
		t.Fatalf("Available = %d", p.Available())
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestUpsizeBoundedByAvailable(t *testing.T) {
	p := newPoolOf(50, 2, 1)
	// Consumer 0 shrinks to 10 → 40 free.
	p.Request(0, 10)
	// Consumer 1 asks for 200 → gets 50+40 = 90, the paper's
	// min{Bg−ΣBq, need} rule.
	granted := p.Request(1, 200)
	if granted != 90 {
		t.Fatalf("granted = %d, want 90", granted)
	}
	if p.Available() != 0 {
		t.Fatalf("Available = %d", p.Available())
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestMinFloor(t *testing.T) {
	p := newPoolOf(50, 2, 5)
	granted := p.Request(0, 0)
	if granted != 5 {
		t.Fatalf("granted = %d, want floor 5", granted)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestMinFloorClampedToB0(t *testing.T) {
	p := newPoolOf(3, 2, 10)
	// floor cannot exceed B0
	if got := p.Request(0, 0); got != 3 {
		t.Fatalf("granted = %d, want 3", got)
	}
}

func TestMeanQuota(t *testing.T) {
	p := newPoolOf(50, 1, 1)
	if p.MeanQuota() != 0 {
		t.Fatal("no samples should give 0")
	}
	p.Request(0, 40)
	p.Request(0, 20)
	if got := p.MeanQuota(); got != 30 {
		t.Fatalf("MeanQuota = %v", got)
	}
}

func TestExactFitAtGlobal(t *testing.T) {
	p := newPoolOf(10, 2, 1)
	p.Request(0, 1)
	granted := p.Request(1, 19)
	if granted != 19 {
		t.Fatalf("granted = %d", granted)
	}
	if p.Available() != 0 {
		t.Fatalf("Available = %d", p.Available())
	}
	// No headroom left: same-size request keeps the quota.
	if got := p.Request(1, 25); got != 19 {
		t.Fatalf("re-request = %d", got)
	}
}

// Property: under random request storms the pool invariant always holds
// and grants never exceed requests.
func TestPropertyInvariantUnderStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(8)
		b0 := 1 + rng.Intn(100)
		p := newPoolOf(b0, m, 1)
		for op := 0; op < 1000; op++ {
			id := rng.Intn(m)
			want := rng.Intn(3 * b0)
			granted := p.Request(id, want)
			if want >= 1 && granted > want {
				t.Fatalf("trial %d: granted %d > want %d", trial, granted, want)
			}
			if granted < 1 {
				t.Fatalf("trial %d: granted %d below floor", trial, granted)
			}
			if err := p.CheckInvariant(); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, op, err)
			}
		}
	}
}

// Property: a downsize by one consumer is always fully reclaimable by
// another (no capacity is lost).
func TestPropertyNoCapacityLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		p := newPoolOf(40, 2, 1)
		down := 1 + rng.Intn(39)
		p.Request(0, down)
		freed := 40 - down
		granted := p.Request(1, 40+freed)
		if granted != 40+freed {
			t.Fatalf("trial %d: freed %d but granted %d", trial, freed, granted)
		}
	}
}

func TestEmptyPoolAddRemove(t *testing.T) {
	p := NewPool(50, 2)
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
	p := NewPool(50, 1)
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
	NewPool(0, 1)
}

func TestEmptyPoolMinFloorClamp(t *testing.T) {
	p := NewPool(4, 10) // floor above b0 clamps to b0
	p.Add(0)
	if got := p.Request(0, 1); got != 4 {
		t.Fatalf("granted %d, want clamped floor 4", got)
	}
}

// Property: random add/remove/request churn never breaks the invariant.
func TestPropertyDynamicChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := NewPool(20, 2)
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
