package main

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_reference.txt from the current simulator")

// TestMain lets the test binary stand in for the benchmark binary when
// a run starts its generator or set-up probe as a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "gen" || os.Args[1] == "setup") {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSimReference(t *testing.T) {
	p, err := newSimPlan(simRefSeed)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := p.regenerate(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("testdata/sim_reference.txt", out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(out) != string(simReference) {
		t.Fatal("figure set differs from testdata/sim_reference.txt; rerun with -update if the change is intended")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestGateCatchesDisorder feeds the benchmark handler a duplicate and
// an out-of-order item.
func TestGateCatchesDisorder(t *testing.T) {
	k := newSink([]string{"s"}, nil)
	h := k.handlerFor(0)("s")
	h([][]byte{[]byte("1 0"), []byte("2 0")})
	h([][]byte{[]byte("2 0"), []byte("1 0"), []byte("3 0"), []byte("junk")})
	if got := k.violations.Load(); got != 3 {
		t.Fatalf("violations = %d, want 3", got)
	}
	if got := k.delivered.Load(); got != 3 {
		t.Fatalf("delivered = %d, want 3", got)
	}
}

// TestGateCatchesSimDrift checks that a figure set that differs from
// the reference fails the run.
func TestGateCatchesSimDrift(t *testing.T) {
	p, err := newSimPlan(simRefSeed)
	if err != nil {
		t.Fatal(err)
	}
	p.ref = []byte("not the reference")
	if _, err := runFigureSets(p, 0, nil, nil); err == nil {
		t.Fatal("a drifted figure set passed the gate")
	}
}

func smoke(t *testing.T, workload string, trace bool) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	o := options{workload: workload, seed: 2, seconds: 1, trace: trace, traceDir: t.TempDir(), setups: 1}
	var res result
	var err error
	if workload == wSimRepro {
		res, err = simBench(o)
	} else {
		res, err = liveBench(o)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
		t.Fatalf("result %+v", res)
	}
	for _, d := range want {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
}

func TestSmokeTCPZipf(t *testing.T)         { smoke(t, wTCPZipf, false) }
func TestSmokeTCPZipfTraced(t *testing.T)   { smoke(t, wTCPZipf, true) }
func TestSmokeHTTPFleet(t *testing.T)       { smoke(t, wHTTPFleet, false) }
func TestSmokeHTTPFleetTraced(t *testing.T) { smoke(t, wHTTPFleet, true) }
func TestSmokeSimRepro(t *testing.T)        { smoke(t, wSimRepro, false) }

func TestLatencyQuantile(t *testing.T) {
	h := newLatencyHist()
	for i := int64(1); i <= 1000; i++ {
		h.record(i * int64(time.Millisecond) / 10) // 0.1 ms .. 100 ms
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}} {
		if got := h.quantile(c.q); got < c.want-latBucket || got > c.want+latBucket {
			t.Errorf("q%.2f = %v, want %v ± %v", c.q, got, c.want, latBucket)
		}
	}
}
