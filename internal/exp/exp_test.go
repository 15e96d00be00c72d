package exp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/simtime"
)

// testCfg is heavy enough for stable orderings but light enough for CI.
var testCfg = Config{
	Duration:   5 * simtime.Second,
	Replicates: 2,
	BaseSeed:   1998,
}

// Cache the §III study across tests: Fig3, Fig4 and Correlations all
// consume the same runs.
var (
	studyOnce sync.Once
	study3    Table
	study4    Table
	studyCorr Table
	studyErr  error
)

func studyTables(t *testing.T) (Table, Table, Table) {
	t.Helper()
	studyOnce.Do(func() {
		reports, err := studyReports(testCfg)
		if err != nil {
			studyErr = err
			return
		}
		study3 = fig3From(reports)
		study4 = fig4From(reports)
		studyCorr, studyErr = corrFrom(reports)
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study3, study4, studyCorr
}

func TestConfigValidate(t *testing.T) {
	if err := Default().validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().validate(); err != nil {
		t.Fatal(err)
	}
	if (Config{Duration: 0, Replicates: 1}).validate() == nil {
		t.Fatal("zero duration should fail")
	}
	if (Config{Duration: 1, Replicates: 0}).validate() == nil {
		t.Fatal("zero replicates should fail")
	}
	if _, err := Fig9(Config{}); err == nil {
		t.Fatal("invalid config should propagate")
	}
}

func TestFig3Orderings(t *testing.T) {
	fig3, _, _ := studyTables(t)
	if len(fig3.Rows) != 7 {
		t.Fatalf("rows = %d", len(fig3.Rows))
	}
	// Spinners: full usage, no wakeups.
	for _, label := range []string{"bw", "yield"} {
		if got := fig3.MustValue(label, KeyUsage); got < 999 {
			t.Errorf("%s usage = %v, want ≈1000", label, got)
		}
		if got := fig3.MustValue(label, KeyWakeups); got != 0 {
			t.Errorf("%s wakeups = %v, want 0", label, got)
		}
	}
	// Paper ordering on PowerTop wakeups: SPBP < BP < PBP ≪ Mutex ≈ Sem.
	spbp := fig3.MustValue("spbp", KeyWakeups)
	bp := fig3.MustValue("bp", KeyWakeups)
	pbp := fig3.MustValue("pbp", KeyWakeups)
	mutex := fig3.MustValue("mutex", KeyWakeups)
	sem := fig3.MustValue("sem", KeyWakeups)
	if !(spbp < bp && bp < pbp && pbp < mutex) {
		t.Errorf("wakeup ordering violated: spbp=%v bp=%v pbp=%v mutex=%v", spbp, bp, pbp, mutex)
	}
	if ratio := mutex / sem; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("mutex/sem should be kin: %v vs %v", mutex, sem)
	}
	if mutex < 3*pbp {
		t.Errorf("blockers should dwarf batchers: mutex=%v pbp=%v", mutex, pbp)
	}
}

func TestFig4PowerOrdering(t *testing.T) {
	_, fig4, _ := studyTables(t)
	bw := fig4.MustValue("bw", KeyPower)
	yield := fig4.MustValue("yield", KeyPower)
	mutex := fig4.MustValue("mutex", KeyPower)
	if !(bw > yield && yield > mutex) {
		t.Errorf("spinner power ordering violated: bw=%v yield=%v mutex=%v", bw, yield, mutex)
	}
	// The batch trio sits below Mutex and Sem (paper: "all three
	// batch-based implementations are the most power efficient").
	for _, batch := range []string{"bp", "pbp", "spbp"} {
		if got := fig4.MustValue(batch, KeyPower); got >= mutex {
			t.Errorf("%s power %v should be below mutex %v", batch, got, mutex)
		}
	}
	// SPBP vs Mutex lands near the paper's -33% band.
	drop := 1 - fig4.MustValue("spbp", KeyPower)/mutex
	if drop < 0.2 || drop > 0.6 {
		t.Errorf("SPBP vs Mutex power drop = %.1f%%, want 20-60%%", drop*100)
	}
}

func TestCorrelations(t *testing.T) {
	_, _, corr := studyTables(t)
	idle, ok := corr.Row("idle-based-5")
	if !ok {
		t.Fatal("missing idle-based row")
	}
	if r := idle.Value("r"); r < 0.7 {
		t.Errorf("idle-based correlation = %v, want ≥ +0.7 (paper: +0.74)", r)
	}
	if idle.Value("significant99") != 1 {
		t.Error("wakeup↔power effect should be significant at 99% (paper's hypothesis test)")
	}
	all, _ := corr.Row("all-7")
	if r := all.Value("r"); r >= idle.Value("r") {
		t.Errorf("all-7 correlation %v should be dragged down by the spinners (idle=%v)", r, idle.Value("r"))
	}
}

func TestFig9PBPLWins(t *testing.T) {
	fig9, err := Fig9(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	pbplW := fig9.MustValue(core.Name, KeyWakeups)
	pbplP := fig9.MustValue(core.Name, KeyPower)
	for _, label := range []string{"mutex", "sem", "bp"} {
		if w := fig9.MustValue(label, KeyWakeups); w <= pbplW {
			t.Errorf("PBPL wakeups %v should be below %s %v", pbplW, label, w)
		}
		if p := fig9.MustValue(label, KeyPower); p <= pbplP {
			t.Errorf("PBPL power %v should be below %s %v", pbplP, label, p)
		}
	}
	// Paper band: −37.8% wakeups vs BP; accept 20–60%.
	red := 1 - pbplW/fig9.MustValue("bp", KeyWakeups)
	if red < 0.2 || red > 0.6 {
		t.Errorf("wakeup reduction vs BP = %.1f%%, want 20-60%% (paper: 37.8%%)", red*100)
	}
	if len(fig9.Notes) == 0 {
		t.Error("fig9 should carry paper-comparison notes")
	}
}

func TestFig10Scaling(t *testing.T) {
	fig10, err := Fig10(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	improvement := func(m string) float64 {
		mu := fig10.MustValue("mutex M="+m, KeyPower)
		pb := fig10.MustValue(core.Name+" M="+m, KeyPower)
		return 1 - pb/mu
	}
	if improvement("10") <= improvement("2") {
		t.Errorf("improvement should grow with M: M=2 %.1f%%, M=10 %.1f%%",
			improvement("2")*100, improvement("10")*100)
	}
	// Power grows with M for every implementation.
	for _, impl := range []string{"mutex", "bp", core.Name} {
		p2 := fig10.MustValue(impl+" M=2", KeyPower)
		p10 := fig10.MustValue(impl+" M=10", KeyPower)
		if p10 <= p2 {
			t.Errorf("%s power should grow with M: %v → %v", impl, p2, p10)
		}
	}
	// Mutex wakeups/s fall as consumers multiply (the paper's busier-CPU
	// observation).
	if fig10.MustValue("mutex M=10", KeyWakeups) >= fig10.MustValue("mutex M=2", KeyWakeups) {
		t.Error("mutex wakeups should fall with more consumers")
	}
}

func TestFig11BufferSweep(t *testing.T) {
	fig11, err := Fig11(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wakeups and power fall as B grows, for both implementations.
	for _, impl := range []string{"bp", core.Name} {
		w25 := fig11.MustValue(impl+" B=25", KeyWakeups)
		w100 := fig11.MustValue(impl+" B=100", KeyWakeups)
		if w100 >= w25 {
			t.Errorf("%s wakeups should fall with B: %v → %v", impl, w25, w100)
		}
		p25 := fig11.MustValue(impl+" B=25", KeyPower)
		p100 := fig11.MustValue(impl+" B=100", KeyPower)
		if p100 >= p25 {
			t.Errorf("%s power should fall with B: %v → %v", impl, p25, p100)
		}
	}
	// The PBPL−BP gap narrows as B grows (saturation).
	gap := func(b string) float64 {
		return fig11.MustValue("bp B="+b, KeyWakeups) - fig11.MustValue(core.Name+" B="+b, KeyWakeups)
	}
	if gap("100") >= gap("25") {
		t.Errorf("wakeup gap should narrow: B=25 %v, B=100 %v", gap("25"), gap("100"))
	}
}

func TestWakeupAccounting(t *testing.T) {
	tb, err := WakeupAccounting(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := tb.Row("bp")
	pbpl, _ := tb.Row(core.Name)
	conversion := 1 - pbpl.Value(KeyOverflows)/bp.Value(KeyOverflows)
	if conversion < 0.5 {
		t.Errorf("overflow conversion = %.1f%%, want ≥50%% (paper: 82.5%%)", conversion*100)
	}
	if pbpl.Value("total") >= bp.Value("total") {
		t.Errorf("PBPL total wakeups %v should be below BP %v", pbpl.Value("total"), bp.Value("total"))
	}
}

func TestBufferOccupancy(t *testing.T) {
	tb, err := BufferOccupancy(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	avg := tb.MustValue(core.Name, KeyAvgBuffer)
	if avg <= 0 || avg >= 50 {
		t.Errorf("avg buffer = %v, want inside (0, 50) (paper: 43)", avg)
	}
	if got := tb.MustValue(core.Name+"-noresize", KeyAvgBuffer); got != 50 {
		t.Errorf("no-resize avg buffer = %v, want exactly 50", got)
	}
}

func TestAblation(t *testing.T) {
	tb, err := Ablation(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	full := tb.MustValue(core.Name, KeyWakeups)
	nolatch := tb.MustValue(core.Name+"-nolatch", KeyWakeups)
	if nolatch <= full {
		t.Errorf("no-latch wakeups %v should exceed full %v", nolatch, full)
	}
	// Resizing converts overflows into scheduled wakeups.
	if tb.MustValue(core.Name+"-noresize", KeyOverflows) <= tb.MustValue(core.Name, KeyOverflows) {
		t.Error("no-resize should overflow more")
	}
	// Prediction buys batch efficiency.
	if tb.MustValue(core.Name+"-nopredict", KeyAvgBatch) >= tb.MustValue(core.Name, KeyAvgBatch) {
		t.Error("no-predict should have smaller batches")
	}
}

func TestAllTables(t *testing.T) {
	tables, err := All(Quick())
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"fig3", "fig4", "corr", "fig9", "fig10", "fig11", "wakeups", "buffer", "ablation", "latency", "predictors", "racetoidle", "powercap", "alignment", "place", "faults"}
	if len(tables) != len(wantIDs) {
		t.Fatalf("tables = %d, want %d", len(tables), len(wantIDs))
	}
	for i, id := range wantIDs {
		if tables[i].ID != id {
			t.Errorf("table %d = %s, want %s", i, tables[i].ID, id)
		}
	}
}

func TestLatencyTradeoff(t *testing.T) {
	tb, err := Latency(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's trade: blockers have microsecond latencies, batchers
	// pay milliseconds for their power savings.
	muP50 := tb.MustValue("mutex", KeyLatencyP50)
	pbP50 := tb.MustValue(core.Name, KeyLatencyP50)
	if pbP50 <= muP50 {
		t.Fatalf("PBPL p50 %.3fms should exceed Mutex %.3fms (batching)", pbP50, muP50)
	}
	if pbP50 > 100 {
		t.Fatalf("PBPL p50 %.3fms exceeds the latency bound", pbP50)
	}
	if tb.MustValue(core.Name, KeyPower) >= tb.MustValue("mutex", KeyPower) {
		t.Fatal("the latency trade must buy power")
	}
	// PBPL's tail should not be worse than BP's: predictive wakes fire
	// before the buffer-fill deadline.
	if tb.MustValue(core.Name, KeyLatencyP99) > tb.MustValue("bp", KeyLatencyP99)*1.5 {
		t.Fatalf("PBPL p99 %.3f far above BP %.3f",
			tb.MustValue(core.Name, KeyLatencyP99), tb.MustValue("bp", KeyLatencyP99))
	}
}

func TestPredictorsTable(t *testing.T) {
	tb, err := Predictors(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row.Value("mae") <= 0 {
			t.Errorf("%s: MAE should be positive on a varying workload", row.Label)
		}
		if row.Value(KeyWakeups) <= 0 {
			t.Errorf("%s: no wakeups recorded", row.Label)
		}
	}
	// The sluggish wide window must overflow more than the paper's MA(8).
	ma8, _ := tb.Row("pbpl/ma(8)")
	ma32, _ := tb.Row("pbpl/ma(32)")
	if ma32.Value(KeyOverflows) <= ma8.Value(KeyOverflows) {
		t.Errorf("ma(32) overflows %v should exceed ma(8) %v",
			ma32.Value(KeyOverflows), ma8.Value(KeyOverflows))
	}
}

func TestRaceToIdleFlat(t *testing.T) {
	tb, err := RaceToIdle(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Usage stretches as frequency drops.
	if tb.MustValue("bp@f=0.4", KeyUsage) <= tb.MustValue("bp@f=1.0", KeyUsage) {
		t.Fatal("lower frequency should raise usage")
	}
	// Power varies by less than 15% across the whole DVFS range (the
	// experiment's point: wakeups dominate on light workloads).
	lo, hi := tb.MustValue("bp@f=0.4", KeyPower), tb.MustValue("bp@f=0.4", KeyPower)
	for _, row := range tb.Rows {
		p := row.Value(KeyPower)
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if (hi-lo)/lo > 0.15 {
		t.Fatalf("DVFS moved power by %.0f%%, expected < 15%%", 100*(hi-lo)/lo)
	}
}

func TestAlignment(t *testing.T) {
	tb, err := Alignment(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	// Baselines sit near the uniform expectation Δ/2 = 2.5ms with ≈0%
	// alignment; PBPL drives Eq. 7 toward zero.
	for _, label := range []string{"mutex", "bp"} {
		mis := tb.MustValue(label, "mean_mis_ms")
		if mis < 2.0 || mis > 3.0 {
			t.Errorf("%s misalignment %.3f, want ≈2.5 (uniform)", label, mis)
		}
		if tb.MustValue(label, "aligned_pct") > 5 {
			t.Errorf("%s should almost never align by chance", label)
		}
	}
	if mis := tb.MustValue(core.Name, "mean_mis_ms"); mis > 1.5 {
		t.Errorf("PBPL misalignment %.3f, want well below Δ/2", mis)
	}
	if pct := tb.MustValue(core.Name, "aligned_pct"); pct < 50 {
		t.Errorf("PBPL aligned %.1f%%, want majority", pct)
	}
}

func TestTableRendering(t *testing.T) {
	fig3, _, _ := studyTables(t)
	var text strings.Builder
	if err := fig3.Render(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"FIG3", "impl", "mutex", "wakeups/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	var md strings.Builder
	if err := fig3.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| impl |") {
		t.Errorf("markdown table malformed:\n%s", md.String())
	}
}

func TestTableHelpers(t *testing.T) {
	tb := Table{ID: "x", Rows: []Row{{Label: "a", Values: map[string]float64{"k": 1, "j": 2}}}}
	if _, ok := tb.Row("missing"); ok {
		t.Fatal("missing row should not be found")
	}
	if v := tb.MustValue("a", "k"); v != 1 {
		t.Fatalf("MustValue = %v", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustValue on missing label should panic")
			}
		}()
		tb.MustValue("missing", "k")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustValue on missing key should panic")
			}
		}()
		tb.MustValue("a", "missing")
	}()
}

func TestDeterministicTables(t *testing.T) {
	cfg := Quick()
	a, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for k, v := range a.Rows[i].Values {
			if b.Rows[i].Values[k] != v {
				t.Fatalf("nondeterministic value %s/%s", a.Rows[i].Label, k)
			}
		}
	}
}
