package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
)

// liveRun is everything one replay of a live workload measured.
type liveRun struct {
	gen       genReport
	offered   int64
	delivered int64
	wall      time.Duration // first due send → last delivery
	os0, os1  osSample
	st0, st1  repro.Stats
	lat       *latencyHist
	batches   int64
	windows   []window

	shedItems    float64 // server-side sheds, all nodes
	tcpMalformed float64
	shedRate     float64
	shedBuffer   float64
	forwarded    float64 // items node 0 forwarded to their owner
	fallbacks    float64
	waitP99      time.Duration // runtime histograms (traced only)
	drainP99     time.Duration
	spans        []span
	unlinked     int
	timeline     []repro.TimelineRecord
}

// runLive replays the workload once against a fresh system under test
// and checks the outputs. A failed check is an error.
func runLive(workload string, seed int64, seconds float64, traced bool, traceDir string) (*liveRun, error) {
	keys, err := streamKeys(workload)
	if err != nil {
		return nil, err
	}
	var log *spanLog
	if traced {
		log = newSpanLog(0)
	}
	k := newSink(keys, log)
	s, err := startSUT(workload, k, traced)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close(context.Background())
		}
	}()

	target := s.httpURL()
	if workload == wTCPZipf {
		target = s.srvs[0].TCPAddr()
	}
	genArgs := []string{"gen", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-target", target}
	spansPath := ""
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
		spansPath = filepath.Join(traceDir, fmt.Sprintf("gen-%d.json", os.Getpid()))
		genArgs = append(genArgs, "-spans", spansPath)
	}
	g, err := startChild(genArgs...)
	if err != nil {
		return nil, err
	}
	defer g.stop()
	if line, err := g.line(); err != nil || line != "ready" {
		return nil, fmt.Errorf("generator not ready (%q): %v", line, err)
	}

	r := &liveRun{os0: readOS(), st0: s.stats()}
	start := time.Now()
	if _, err := io.WriteString(g.stdin, "go\n"); err != nil {
		return nil, err
	}
	stopSampling := sampleWindows(s, &r.windows)
	line, err := g.line()
	if err != nil {
		return nil, fmt.Errorf("generator report: %w", err)
	}
	if err := json.Unmarshal([]byte(line), &r.gen); err != nil {
		return nil, fmt.Errorf("generator report %q: %w", line, err)
	}
	if err := g.wait(); err != nil {
		return nil, fmt.Errorf("generator: %w", err)
	}
	r.offered = r.gen.Total

	// Every item the system accepted must reach the handler.
	accepted := r.gen.Client.Accepted
	if workload == wTCPZipf {
		// Raw TCP has no acknowledgements: wait until the node has read
		// every line, then expect whatever it admitted.
		if accepted, err = awaitTCPIngest(s, r.offered, 10*time.Second); err != nil {
			return nil, err
		}
	}
	k.expect(accepted)
	select {
	case <-k.done:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("handler saw %d of %d accepted items", k.delivered.Load(), accepted)
	}
	r.wall = time.Since(start)
	stopSampling()
	r.os1 = readOS()
	r.st1 = s.stats()

	if err := r.readLayers(s); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	closed = true
	if err := s.close(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	r.delivered = k.delivered.Load()
	r.batches = k.batches.Load()
	r.lat = k.lat
	if err := r.check(workload, s, k, accepted); err != nil {
		return nil, err
	}
	if traced {
		if err := r.collectTrace(s, log, spansPath, traceDir, workload, seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// window is the process CPU, voluntary context switches and admitted
// items of one sampling interval.
type window struct {
	cpu   time.Duration
	nvcsw int64
	items uint64
}

// windowEvery is the sampling interval. Per-item costs are reported as
// the median over windows, so a short burst of outside load on the
// machine moves a few windows, not the result. Windows count items as
// the runtimes admit them, which happens at the steady arrival rate;
// deliveries come in bursts at drain time and would alias with the
// window edges.
const windowEvery = time.Second

// sampleWindows records windows into out until the returned stop
// function is called; stop waits for the sampler to exit and closes
// the last, partial window.
func sampleWindows(s *sut, out *[]window) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(windowEvery)
		defer t.Stop()
		prev, items := readOS(), s.stats().ItemsIn
		take := func() {
			cur, n := readOS(), s.stats().ItemsIn
			*out = append(*out, window{cpu: cur.cpu - prev.cpu, nvcsw: cur.nvcsw - prev.nvcsw, items: n - items})
			prev, items = cur, n
		}
		for {
			select {
			case <-done:
				take()
				return
			case <-t.C:
				take()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// awaitTCPIngest waits until the node has consumed all n offered lines
// (admitted, shed or malformed) and returns how many it admitted.
func awaitTCPIngest(s *sut, n int64, timeout time.Duration) (int64, error) {
	deadline := time.Now().Add(timeout)
	for {
		st := s.stats()
		m, err := scrapeCounter(s.srvs[0].Addr(), "pcd_tcp_malformed_total")
		if err != nil {
			return 0, err
		}
		if int64(st.ItemsIn+st.Overflows)+int64(m) >= n {
			return int64(st.ItemsIn), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("node read %d of %d lines", st.ItemsIn+st.Overflows, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scrapeCounter reads one unlabeled sample from the node's /metrics.
func scrapeCounter(addr, name string) (float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// statusz is the slice of the server's status document the benchmark
// reads.
type statusz struct {
	ShedHTTP uint64 `json:"shed_http"`
	ShedTCP  uint64 `json:"shed_tcp"`
	Cluster  *struct {
		ForwardsOutItems uint64 `json:"forwards_out_items"`
		ForwardFallbacks uint64 `json:"forward_fallbacks"`
	} `json:"cluster"`
}

// readLayers records the per-layer counters while the servers are up.
func (r *liveRun) readLayers(s *sut) error {
	for i, srv := range s.srvs {
		b, err := srv.StatusJSON()
		if err != nil {
			return err
		}
		var st statusz
		if err := json.Unmarshal(b, &st); err != nil {
			return err
		}
		r.shedItems += float64(st.ShedHTTP + st.ShedTCP)
		if st.Cluster != nil {
			if i == 0 {
				r.forwarded += float64(st.Cluster.ForwardsOutItems)
			}
			r.fallbacks += float64(st.Cluster.ForwardFallbacks)
		}
		m, err := scrapeCounter(srv.Addr(), "pcd_tcp_malformed_total")
		if err != nil {
			return err
		}
		r.tcpMalformed += m
	}
	if s.reg != nil {
		for _, t := range s.reg.Snapshot().Tenants {
			r.shedRate += float64(t.ShedRate)
			r.shedBuffer += float64(t.ShedBuffer)
		}
	}
	for _, rt := range s.rts {
		if wait, _, ok := rt.LatencyTotals(); ok {
			r.waitP99 = max(r.waitP99, wait.P99)
		}
		for _, m := range rt.ManagerLatencies() {
			r.drainP99 = max(r.drainP99, m.Drain.P99)
		}
		r.timeline = append(r.timeline, rt.TimelineDump()...)
	}
	return nil
}

// check is the correctness gate for a live run.
func (r *liveRun) check(workload string, s *sut, k *sink, accepted int64) error {
	var errs []error
	if v := k.violations.Load(); v > 0 {
		errs = append(errs, fmt.Errorf("%d items arrived twice, out of per-stream order, or corrupt", v))
	}
	var out uint64
	for i, rt := range s.rts {
		st := rt.Stats()
		if st.ItemsIn != st.ItemsOut+st.ItemsDropped+st.HandedOff {
			errs = append(errs, fmt.Errorf("node %d: ItemsIn %d != ItemsOut %d + ItemsDropped %d + HandedOff %d",
				i, st.ItemsIn, st.ItemsOut, st.ItemsDropped, st.HandedOff))
		}
		out += st.ItemsOut
	}
	if int64(out) != r.delivered {
		errs = append(errs, fmt.Errorf("runtimes delivered %d items, handler saw %d", out, r.delivered))
	}
	if r.delivered != accepted {
		errs = append(errs, fmt.Errorf("accepted %d items, handler saw %d", accepted, r.delivered))
	}
	delivered := k.deliveredBy()
	for i, key := range r.gen.Keys {
		if delivered[key] > r.gen.Offered[i] {
			errs = append(errs, fmt.Errorf("stream %s: %d delivered of %d offered", key, delivered[key], r.gen.Offered[i]))
		}
	}
	switch workload {
	case wTCPZipf:
		if got := float64(accepted) + r.shedItems + r.tcpMalformed; got != float64(r.offered) {
			errs = append(errs, fmt.Errorf("offered %d lines, node accounts for %.0f", r.offered, got))
		}
	case wHTTPFleet:
		c := r.gen.Client
		if c.Sent != r.offered {
			errs = append(errs, fmt.Errorf("SDK sent %d of %d offered items", c.Sent, r.offered))
		}
		if c.Sent != c.Accepted+c.Shed+c.Quarantined+c.Dropped {
			errs = append(errs, fmt.Errorf("SDK sent %d items but accounts for %d", c.Sent, c.Accepted+c.Shed+c.Quarantined+c.Dropped))
		}
		if err := s.reg.Pool().CheckInvariant(); err != nil {
			errs = append(errs, fmt.Errorf("tenant pool: %w", err))
		}
	}
	return errors.Join(errs...)
}

// collectTrace links the generator's and the handler's spans, writes
// them with the runtime timeline, and keeps them for the self-time
// metrics.
func (r *liveRun) collectTrace(s *sut, log *spanLog, spansPath, dir, workload string, seed int64) error {
	b, err := os.ReadFile(spansPath)
	if err != nil {
		return err
	}
	var gen []span
	if err := json.Unmarshal(b, &gen); err != nil {
		return err
	}
	os.Remove(spansPath)
	handler := log.all()
	r.unlinked = link(gen, handler)
	r.spans = append(gen, handler...)
	err = writeTrace(dir, fmt.Sprintf("%s-seed%d.json", workload, seed), map[string]any{
		"workload": workload, "seed": seed, "spans": r.spans, "timeline": r.timeline,
	})
	return err
}

// child is a helper process speaking line by line over pipes.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

// running holds every child not yet reaped, so the watchdog can kill
// them before it exits.
var running = struct {
	sync.Mutex
	procs map[*os.Process]bool
}{procs: map[*os.Process]bool{}}

// watchdog ends a run that has hung: it kills the children and exits
// non-zero once d has passed.
func watchdog(d time.Duration) {
	time.AfterFunc(d, func() {
		running.Lock()
		for p := range running.procs {
			p.Kill()
			p.Wait()
		}
		running.Unlock()
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %v\n", d)
		os.Exit(1)
	})
}

// startChild runs this benchmark binary again with args.
func startChild(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	running.Lock()
	defer running.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	running.procs[cmd.Process] = true
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	return &child{cmd: cmd, stdin: stdin, out: sc}, nil
}

func (c *child) line() (string, error) {
	if c.out.Scan() {
		return c.out.Text(), nil
	}
	if err := c.out.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

// wait closes stdin and waits for the child to exit.
func (c *child) wait() error {
	c.stdin.Close()
	for c.out.Scan() {
	}
	err := c.cmd.Wait()
	running.Lock()
	delete(running.procs, c.cmd.Process)
	running.Unlock()
	c.cmd = nil
	return err
}

// stop kills the child if it is still running and reaps it.
func (c *child) stop() {
	if c.cmd == nil {
		return
	}
	c.cmd.Process.Kill()
	c.wait()
}
