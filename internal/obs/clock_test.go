package obs

import (
	"testing"
	"time"
)

func TestClock(t *testing.T) {
	start := time.Now()
	c := NewClock(start, time.Millisecond)
	defer c.Stop()
	if c.Now() < 0 {
		t.Fatalf("initial Now = %d, want ≥ 0", c.Now())
	}
	p := c.Precise()
	if p <= 0 {
		t.Fatalf("Precise = %d, want > 0", p)
	}
	start0 := c.Now()
	deadline := time.Now().Add(2 * time.Second)
	for c.Now() <= start0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never advanced the clock")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Stop()
	c.Stop() // idempotent
}
