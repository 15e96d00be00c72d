// Command perfbench is the repository benchmark. It runs one workload
// per invocation, checks that the system's outputs are correct, and
// prints its metrics as one JSON object on the last line of stdout:
//
//	perfbench --workload tcp-zipf --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced run and the layer ledger. See
// NOTES.md for the workloads and what each metric means.
//
// The same binary is also the load generator ("perfbench gen ...") and
// the set-up probe ("perfbench setup ..."), started as child processes
// so their CPU and context switches stay out of the measured process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "gen":
		err = genMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "setup":
		err = setupMain(os.Args[2:])
	default:
		err = benchMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setProcs caps GOMAXPROCS at 2: the load is sized for a 2-CPU machine.
func setProcs() { runtime.GOMAXPROCS(min(2, runtime.NumCPU())) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one benchmark invocation's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where traced runs write their spans
	setups   int    // set-up probes per run; setup_s is their median
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "tcp-zipf, http-fleet or sim-repro")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per pass")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run and the layer ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown --workload %q (want one of %v)", o.workload, workloadNames)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	o.trace = traceFlag == 1
	o.traceDir = ".bench_build/traces"
	o.setups = 15
	setProcs()
	watchdog(time.Duration(3*o.seconds+60) * time.Second)

	var res result
	var err error
	if o.workload == wSimRepro {
		res, err = simBench(o)
	} else {
		res, err = liveBench(o)
	}
	if err != nil {
		return err
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, declared %d", len(res.Metrics), len(want))
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs of every workload.
var endToEnd = []metricDef{
	{"cpu_us_per_item", "us"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"wakeups_per_kitem", "count"},
	{"os_wakeups_per_kitem", "count"},
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// metricSet fills a result's metrics against a declaration list, so a
// typo or a unit mismatch fails the run instead of drifting silently.
type metricSet struct {
	defs map[string]string
	m    map[string]metric
	err  error
}

func newMetricSet(defs []metricDef) *metricSet {
	s := &metricSet{defs: map[string]string{}, m: map[string]metric{}}
	for _, d := range defs {
		s.defs[d.name] = d.unit
	}
	return s
}

func (s *metricSet) set(name string, v float64) {
	unit, ok := s.defs[name]
	if !ok {
		s.err = errors.Join(s.err, fmt.Errorf("undeclared metric %s", name))
		return
	}
	s.m[name] = metric{Value: v, Unit: unit}
}
