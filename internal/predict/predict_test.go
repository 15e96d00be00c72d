package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMovingAverageWindow(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Predict() != 0 {
		t.Fatal("unprimed predictor should return 0")
	}
	m.Observe(10)
	if got := m.Predict(); got != 10 {
		t.Fatalf("after one obs = %v", got)
	}
	m.Observe(20)
	if got := m.Predict(); got != 15 {
		t.Fatalf("after two obs = %v", got)
	}
	m.Observe(30)
	if got := m.Predict(); got != 20 {
		t.Fatalf("full window = %v", got)
	}
	m.Observe(40) // evicts 10
	if got := m.Predict(); got != 30 {
		t.Fatalf("after eviction = %v", got)
	}
}

func TestMovingAverageReset(t *testing.T) {
	m := NewMovingAverage(2)
	m.Observe(5)
	m.Reset()
	if m.Predict() != 0 {
		t.Fatal("reset should clear state")
	}
	m.Observe(7)
	if m.Predict() != 7 {
		t.Fatal("reset predictor should behave fresh")
	}
}

func TestMovingAverageInvalidWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMovingAverage(0)
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Predict() != 0 {
		t.Fatal("unprimed EWMA should be 0")
	}
	e.Observe(100)
	if e.Predict() != 100 {
		t.Fatalf("first obs = %v", e.Predict())
	}
	e.Observe(0)
	if e.Predict() != 50 {
		t.Fatalf("second obs = %v", e.Predict())
	}
	e.Reset()
	if e.Predict() != 0 {
		t.Fatal("reset failed")
	}
}

func TestEWMAInvalidAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha=%v should panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestKalmanConvergesToConstant(t *testing.T) {
	k := NewKalman(1, 100)
	if k.Predict() != 0 {
		t.Fatal("unprimed Kalman should be 0")
	}
	for i := 0; i < 200; i++ {
		k.Observe(500)
	}
	if math.Abs(k.Predict()-500) > 1e-6 {
		t.Fatalf("Kalman did not converge: %v", k.Predict())
	}
}

func TestKalmanTracksStep(t *testing.T) {
	k := NewKalman(50, 100)
	for i := 0; i < 50; i++ {
		k.Observe(100)
	}
	for i := 0; i < 50; i++ {
		k.Observe(1000)
	}
	if math.Abs(k.Predict()-1000) > 50 {
		t.Fatalf("Kalman lagging after step: %v", k.Predict())
	}
	k.Reset()
	if k.Predict() != 0 {
		t.Fatal("reset failed")
	}
}

func TestKalmanFiltersNoise(t *testing.T) {
	// With small process variance, the filter should average out noise
	// better than the last observation does.
	k := NewKalman(1, 10000)
	rng := rand.New(rand.NewSource(1))
	truth := 700.0
	var lastObs float64
	for i := 0; i < 500; i++ {
		lastObs = truth + rng.NormFloat64()*100
		k.Observe(lastObs)
	}
	kfErr := math.Abs(k.Predict() - truth)
	if kfErr > 50 {
		t.Fatalf("Kalman error too large: %v", kfErr)
	}
}

func TestKalmanInvalidParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKalman(0, 1)
}

func TestHold(t *testing.T) {
	h := NewHold()
	if h.Predict() != 0 {
		t.Fatal("unprimed hold should be 0")
	}
	h.Observe(3)
	h.Observe(9)
	if h.Predict() != 9 {
		t.Fatalf("hold = %v", h.Predict())
	}
	h.Reset()
	if h.Predict() != 0 {
		t.Fatal("reset failed")
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Predictor{
		"ma(8)":                 NewMovingAverage(8),
		"ewma(0.30)":            NewEWMA(0.3),
		"kalman(q=100,r=10000)": NewKalman(100, 10000),
		"hold":                  NewHold(),
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestDefaultFactory(t *testing.T) {
	p := DefaultFactory()
	if p.Name() != "ma(8)" {
		t.Fatalf("default = %q", p.Name())
	}
}

// Property: every predictor's output stays within [min, max] of its
// observations (all are convex combinations of the history).
func TestPropertyPredictionsBounded(t *testing.T) {
	factories := []Factory{
		func() Predictor { return NewMovingAverage(5) },
		func() Predictor { return NewEWMA(0.4) },
		func() Predictor { return NewKalman(10, 100) },
		func() Predictor { return NewHold() },
	}
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		for _, mk := range factories {
			p := mk()
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range raw {
				v := float64(r)
				p.Observe(v)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				got := p.Predict()
				if got < lo-1e-9 || got > hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a constant signal every predictor converges to it.
func TestPropertyConstantConvergence(t *testing.T) {
	f := func(v uint16) bool {
		val := float64(v) + 1
		for _, p := range []Predictor{NewMovingAverage(4), NewEWMA(0.3), NewKalman(1, 10), NewHold()} {
			for i := 0; i < 100; i++ {
				p.Observe(val)
			}
			if math.Abs(p.Predict()-val) > val*0.01+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
