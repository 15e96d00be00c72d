package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
)

// genReport is what the generator process tells the benchmark when the
// replay ends (one JSON line on its stdout).
type genReport struct {
	Keys    []string `json:"keys"`
	Offered []int64  `json:"offered"` // per stream
	Total   int64    `json:"total"`

	// SDK accounting (http-fleet), summed over the tenants' clients.
	Client client.Stats `json:"client"`

	Requests int64   `json:"requests"` // HTTP round trips (traced runs only)
	ReqP50Us float64 `json:"req_p50_us"`
	ReqP99Us float64 `json:"req_p99_us"`

	LagP99Ms float64 `json:"lag_p99_ms"`
	CPUUs    float64 `json:"cpu_us"` // from the go signal to the report
}

// genMain is the generator process: it realizes the workload's
// schedule from the seed, connects to the system under test, prints
// "ready", waits for "go" on stdin, then replays the schedule open loop
// (each item is due at its scheduled time whatever the system does)
// and reports. Items carry "<seq> <scheduled unix ns>" so the consumer
// can check order and measure latency from the due time.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	workload := fs.String("workload", "", "live workload")
	seed := fs.Int64("seed", 1, "schedule seed")
	seconds := fs.Float64("seconds", 10, "replay length")
	target := fs.String("target", "", "TCP address (tcp-zipf) or HTTP base URL (http-fleet)")
	spansOut := fs.String("spans", "", "write generator spans here (traced runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setProcs()
	sc, err := scenario(*workload, *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	sched := schedule(sc)
	rep := genReport{Offered: make([]int64, len(sc.Streams))}
	for _, st := range sc.Streams {
		rep.Keys = append(rep.Keys, st.Key)
	}
	var log *spanLog
	if *spansOut != "" {
		log = newSpanLog(1 << 40)
	}

	var emit func(batch []arrival, seqs []int64, t0 int64) error
	var finish func() error
	reqLat := &latencies{}
	switch *workload {
	case wTCPZipf:
		conn, err := net.Dial("tcp", *target)
		if err != nil {
			return err
		}
		w := &tcpEmitter{conn: conn, keys: rep.Keys, log: log}
		emit = w.emit
		finish = conn.Close
	case wHTTPFleet:
		var hc *http.Client
		if log != nil {
			tr := &tracingTransport{base: http.DefaultTransport, keys: map[string]int32{}, log: log, lat: reqLat}
			for i, k := range rep.Keys {
				tr.keys[k] = int32(i)
			}
			hc = &http.Client{Timeout: 10 * time.Second, Transport: tr}
		}
		b, err := newBatcher(*target, hc, rep.Keys)
		if err != nil {
			return err
		}
		emit = b.emit
		finish = func() error {
			err := b.close()
			rep.Client = b.stats()
			return err
		}
	default:
		return fmt.Errorf("gen: unknown live workload %q", *workload)
	}

	fmt.Println("ready")
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() || in.Text() != "go" {
		return errors.New("gen: no go signal")
	}
	cpu0 := readOS().cpu
	lags, err := replay(sched, len(sc.Streams), emit)
	if err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}
	for _, a := range sched {
		rep.Offered[a.stream]++
	}
	rep.Total = int64(len(sched))
	rep.LagP99Ms = float64(quantileInt64(lags, 0.99)) / 1e6
	if reqLat.n() > 0 {
		rep.Requests = int64(reqLat.n())
		rep.ReqP50Us = float64(reqLat.q(0.50)) / 1e3
		rep.ReqP99Us = float64(reqLat.q(0.99)) / 1e3
	}
	rep.CPUUs = float64((readOS().cpu - cpu0).Microseconds())
	if log != nil {
		b, err := json.Marshal(log.all())
		if err != nil {
			return err
		}
		if err := os.WriteFile(*spansOut, b, 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// replay walks the schedule open loop. It wakes at most once per
// millisecond, hands every item already due to emit, and returns each
// item's lag behind its due time.
func replay(sched []arrival, streams int, emit func([]arrival, []int64, int64) error) ([]int64, error) {
	const tick = time.Millisecond
	next := make([]int64, streams) // last sequence number sent per stream
	seqs := make([]int64, 0, 4096)
	lags := make([]int64, 0, len(sched))
	start := time.Now()
	t0 := start.UnixNano()
	for i := 0; i < len(sched); {
		now := time.Since(start).Nanoseconds()
		j := i
		for j < len(sched) && sched[j].at <= now {
			j++
		}
		if j > i {
			seqs = seqs[:0]
			for _, a := range sched[i:j] {
				next[a.stream]++
				seqs = append(seqs, next[a.stream])
			}
			if err := emit(sched[i:j], seqs, t0); err != nil {
				return nil, err
			}
			sent := time.Since(start).Nanoseconds()
			for _, a := range sched[i:j] {
				lags = append(lags, sent-a.at)
			}
			i = j
		}
		if i < len(sched) {
			wake := max(sched[i].at, now+int64(tick))
			time.Sleep(time.Duration(wake - time.Since(start).Nanoseconds()))
		}
	}
	return lags, nil
}

// appendItem renders an item payload: "<seq> <due unix ns>".
func appendItem(b []byte, seq, due int64) []byte {
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, ' ')
	return strconv.AppendInt(b, due, 10)
}

// parseItem is appendItem's inverse.
func parseItem(b []byte) (seq, due int64, ok bool) {
	sp := bytes.IndexByte(b, ' ')
	if sp <= 0 {
		return 0, 0, false
	}
	seq, ok1 := atoi(b[:sp])
	due, ok2 := atoi(b[sp+1:])
	return seq, due, ok1 && ok2
}

func atoi(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

// tcpEmitter writes due items as raw-TCP lines, one write per tick.
type tcpEmitter struct {
	conn net.Conn
	keys []string
	buf  []byte
	log  *spanLog
}

func (w *tcpEmitter) emit(batch []arrival, seqs []int64, t0 int64) error {
	w.buf = w.buf[:0]
	for i, a := range batch {
		w.buf = append(w.buf, w.keys[a.stream]...)
		w.buf = append(w.buf, ' ')
		w.buf = appendItem(w.buf, seqs[i], t0+a.at)
		w.buf = append(w.buf, '\n')
	}
	start := time.Now()
	_, err := w.conn.Write(w.buf)
	if w.log != nil {
		w.log.add(span{Kind: spanGenFlush, Start: start.UnixNano(), End: time.Now().UnixNano(),
			Items: len(batch), Ranges: rangesOf(batch, seqs)})
	}
	return err
}

// rangesOf summarizes which sequence numbers of each stream a batch
// carried.
func rangesOf(batch []arrival, seqs []int64) []seqRange {
	var out []seqRange
	idx := map[int32]int{}
	for i, a := range batch {
		if k, ok := idx[a.stream]; ok {
			out[k].Hi = seqs[i]
			continue
		}
		idx[a.stream] = len(out)
		out = append(out, seqRange{Stream: a.stream, Lo: seqs[i], Hi: seqs[i]})
	}
	return out
}

// tracingTransport records one span per SDK HTTP request: its round
// trip, item count and the sequence numbers it carried.
type tracingTransport struct {
	base http.RoundTripper
	keys map[string]int32
	log  *spanLog
	lat  *latencies
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			body, _ = io.ReadAll(rc) // a copy of an in-memory body; cannot fail
			rc.Close()
		}
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	t.lat.add(end.Sub(start).Nanoseconds())
	s := span{Kind: spanGenRequest, Start: start.UnixNano(), End: end.UnixNano()}
	if stream, ok := t.keys[strings.TrimPrefix(req.URL.Path, "/ingest/")]; ok && len(body) > 0 {
		lines := bytes.Split(body, []byte("\n"))
		lo, _, _ := parseItem(lines[0])
		hi, _, _ := parseItem(lines[len(lines)-1])
		s.Items = len(lines)
		s.Ranges = []seqRange{{Stream: stream, Lo: lo, Hi: hi}}
	}
	t.log.add(s)
	return resp, err
}

// latencies is a concurrency-safe sample of durations in ns.
type latencies struct {
	mu sync.Mutex
	v  []int64
}

func (l *latencies) add(ns int64) {
	l.mu.Lock()
	l.v = append(l.v, ns)
	l.mu.Unlock()
}

func (l *latencies) n() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.v)
}

func (l *latencies) q(q float64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return quantileInt64(l.v, q)
}

// batcher feeds the fleet through the SDK's PutBatch at the SDK's
// default batching: a stream's items go out once 64 are pending or the
// oldest has waited 50 ms. Batching by the schedule keeps the request
// count a property of the seed, not of how the SDK's own flusher
// happens to interleave with the system under test. Each tenant has
// one client and one sender, so the fleet sees two connections.
type batcher struct {
	keys    []string
	pending [][][]byte // per stream
	oldest  []int64    // due time of each stream's oldest pending item
	clients []*client.Client
	queues  []chan batch
	wg      sync.WaitGroup
	dropped atomic.Int64
}

type batch struct {
	key   string
	items [][]byte
}

const (
	sdkBatchSize     = 64                    // client.Config.BatchSize default
	sdkFlushInterval = 50 * time.Millisecond // client.Config.FlushInterval default
)

func newBatcher(target string, hc *http.Client, keys []string) (*batcher, error) {
	b := &batcher{keys: keys, pending: make([][][]byte, len(keys)), oldest: make([]int64, len(keys))}
	for t := 0; t < fleetTenants; t++ {
		cfg := client.Config{Targets: []string{target}, APIKey: tenantKey(t)}
		if hc != nil {
			c := *hc // each client installs its own CheckRedirect
			cfg.HTTPClient = &c
		}
		c, err := client.New(cfg)
		if err != nil {
			return nil, err
		}
		// Sized for a full second of batches at the offered rate: the
		// open-loop schedule must not wait on a slow request, and a
		// backlog that deep already fails the generator-lag check.
		q := make(chan batch, offeredRate/sdkBatchSize)
		b.clients = append(b.clients, c)
		b.queues = append(b.queues, q)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			for r := range q {
				if _, err := c.PutBatch(context.Background(), r.key, r.items); err != nil {
					b.dropped.Add(int64(len(r.items)))
				}
			}
		}()
	}
	return b, nil
}

func (b *batcher) emit(due []arrival, seqs []int64, t0 int64) error {
	now := time.Now().UnixNano()
	for i, a := range due {
		s := a.stream
		if len(b.pending[s]) == 0 {
			b.oldest[s] = t0 + a.at
		}
		b.pending[s] = append(b.pending[s], appendItem(nil, seqs[i], t0+a.at))
		if len(b.pending[s]) >= sdkBatchSize {
			b.send(int(s))
		}
	}
	for s := range b.pending {
		if len(b.pending[s]) > 0 && now-b.oldest[s] >= int64(sdkFlushInterval) {
			b.send(s)
		}
	}
	return nil
}

func (b *batcher) send(s int) {
	b.queues[tenantOf(s)] <- batch{key: b.keys[s], items: b.pending[s]}
	b.pending[s] = nil
}

// close sends every partial batch, waits for the senders and closes
// the clients.
func (b *batcher) close() error {
	for s := range b.pending {
		if len(b.pending[s]) > 0 {
			b.send(s)
		}
	}
	for _, q := range b.queues {
		close(q)
	}
	b.wg.Wait()
	var errs []error
	for _, c := range b.clients {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// stats sums the clients' accounting; items whose PutBatch failed after
// the SDK's retries count as dropped.
func (b *batcher) stats() client.Stats {
	var t client.Stats
	for _, c := range b.clients {
		st := c.Stats()
		t.Sent += st.Sent
		t.Accepted += st.Accepted
		t.Shed += st.Shed
		t.Quarantined += st.Quarantined
		t.Retries += st.Retries
		t.Redirects += st.Redirects
	}
	t.Dropped = b.dropped.Load()
	return t
}
