package metrics

import (
	"testing"

	"repro/internal/simtime"
)

func TestReservoirSmall(t *testing.T) {
	var r Reservoir
	if r.Percentile(50) != 0 {
		t.Fatal("empty reservoir percentile should be 0")
	}
	for i := 1; i <= 100; i++ {
		r.Add(simtime.Duration(i))
	}
	if got := r.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := r.Percentile(100); got != 100 {
		t.Fatalf("P100 = %v", got)
	}
	p50 := r.Percentile(50)
	if p50 < 45 || p50 > 55 {
		t.Fatalf("P50 = %v, want ≈50", p50)
	}
}

func TestReservoirSampling(t *testing.T) {
	// Far more observations than capacity: the sample must stay
	// bounded and representative of a uniform 0..99999 stream.
	var r Reservoir
	for i := 0; i < 100000; i++ {
		r.Add(simtime.Duration(i))
	}
	if len(r.samples) != reservoirSize {
		t.Fatalf("sample size = %d, want %d", len(r.samples), reservoirSize)
	}
	p50 := float64(r.Percentile(50))
	if p50 < 40000 || p50 > 60000 {
		t.Fatalf("P50 = %v, want ≈50000", p50)
	}
	p99 := float64(r.Percentile(99))
	if p99 < 95000 {
		t.Fatalf("P99 = %v, want ≳99000", p99)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	var a, b Reservoir
	for i := 0; i < 50000; i++ {
		a.Add(simtime.Duration(i * 7))
		b.Add(simtime.Duration(i * 7))
	}
	if a.Percentile(90) != b.Percentile(90) {
		t.Fatal("identical streams should sample identically")
	}
}

func TestInvocationTrace(t *testing.T) {
	var tr InvocationTrace
	tr.Log(0, 100, true, 5)
	tr.Log(1, 200, false, 3)
	tr.Log(0, 300, true, 0)
	if len(tr.Events) != 3 {
		t.Fatalf("events = %d", len(tr.Events))
	}
	win := tr.Window(150, 300)
	if len(win) != 1 || win[0].Pair != 1 || win[0].Scheduled {
		t.Fatalf("window = %+v", win)
	}
	// Nil sink is a no-op everywhere (the hot path relies on it).
	var nilTrace *InvocationTrace
	nilTrace.Log(0, 1, true, 1)
	if nilTrace.Window(0, 10) != nil {
		t.Fatal("nil trace window should be nil")
	}
}

func TestAggregateLatencyFields(t *testing.T) {
	a := sampleReport()
	a.LatencyP50 = 2 * simtime.Millisecond
	a.LatencyP99 = 8 * simtime.Millisecond
	agg := Aggregated([]Report{a})
	if agg.LatencyP50.Mean != 2 || agg.LatencyP99.Mean != 8 {
		t.Fatalf("latency summaries: %+v %+v", agg.LatencyP50, agg.LatencyP99)
	}
	if agg.AvgLatency.Mean != 1 { // SumLatency 1000ms over 1000 items
		t.Fatalf("avg latency = %v", agg.AvgLatency.Mean)
	}
}

func TestAttributedValidation(t *testing.T) {
	r := sampleReport()
	r.AttributedWakeups = r.Wakeups + 1
	if r.Validate() == nil {
		t.Fatal("attributed > wakeups should fail validation")
	}
	r.AttributedWakeups = r.Wakeups
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.AttributedPerSec() != r.WakeupsPerSec() {
		t.Fatal("attributed rate mismatch")
	}
}
