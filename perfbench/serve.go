package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	"vcomputebench/internal/serve"
)

// openRate is the serve-replay open loop's fixed arrival rate, well under
// the closed-loop capacity of a 2-CPU host (about 14k requests/s), so latency
// reflects service time plus ordinary queueing, not saturation.
const openRate = 2000

// heavyBenchmarks are left out of the serve mix: their desktop cells take
// 50-650 ms to execute, which would dominate set-up without changing what a
// replay costs.
var heavyBenchmarks = map[string]bool{"cfd": true, "hotspot": true, "nn": true, "membandwidth": true, "vectoradd": true}

// timingKnobs are the driver_knobs overrides the mix draws from.
var timingKnobs = []string{"kernel_launch_overhead_ns", "sync_latency_ns", "submit_overhead_ns", "barrier_overhead_ns"}

// serveReq is one distinct request of the mix and its set-up response.
type serveReq struct {
	body []byte
	want []byte
}

// serveMix is every request of the mix: each cell of every platform and
// supported API (except heavyBenchmarks), and one seeded driver_knobs
// variant of each. seq is the seeded request sequence: a uniformly drawn
// cell, its knob variant a quarter of the time.
type serveMix struct {
	reqs []*serveReq // cells first, then their knob variants
	seq  []int
}

func newServeMix(seed int64, n int) *serveMix {
	rng := rand.New(rand.NewSource(seed))
	var cells []serve.SimulateRequest
	for _, p := range platforms.All() {
		for _, name := range core.Names() {
			b, err := core.Get(name)
			if err != nil || heavyBenchmarks[name] || len(b.Workloads(p.Profile.Class)) == 0 {
				continue
			}
			for _, api := range b.APIs() {
				if _, excluded := p.Excluded(name, api); excluded || !p.Profile.Supports(api) {
					continue
				}
				cells = append(cells, serve.SimulateRequest{Platform: p.ID, Benchmark: name, API: apiName(api)})
			}
		}
	}
	m := &serveMix{}
	for _, c := range cells {
		m.reqs = append(m.reqs, &serveReq{body: mustJSON(c)})
	}
	for _, c := range cells {
		c.DriverKnobs = map[string]float64{timingKnobs[rng.Intn(len(timingKnobs))]: float64(1000 * (1 + rng.Intn(50)))}
		m.reqs = append(m.reqs, &serveReq{body: mustJSON(c)})
	}
	for i := 0; i < n; i++ {
		c := rng.Intn(len(cells))
		if rng.Intn(4) == 0 {
			c += len(cells)
		}
		m.seq = append(m.seq, c)
	}
	return m
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // a SimulateRequest always encodes
	}
	return data
}

// server is one in-process serve.Server on a loopback listener and the
// client that talks to it.
type server struct {
	srv    *serve.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer(cfg serve.Config, conns int) (*server, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{
		srv:    srv,
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
	}
	go func() { s.done <- srv.ServeListener(ctx, ln) }()
	return s, nil
}

// stop drains the server and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// post sends one request and returns the status and body.
func (s *server) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// check sends a mix request and reports whether it answered 200 with the
// set-up bytes.
func (s *server) check(r *serveReq) bool {
	status, body, err := s.post(r.body)
	return err == nil && status == http.StatusOK && bytes.Equal(body, r.want)
}

type serveRun struct {
	e   *env
	mix *serveMix
	res *result
	cv  string
}

func runServe(e *env) (*result, error) {
	s := &serveRun{e: e, mix: newServeMix(e.seed, int(e.seconds.Seconds()/2+1)*openRate), res: newResult(), cv: codeversion.Fingerprint()}

	// Set-up: a fresh disk store and server, then every distinct request
	// once (cells execute, knob variants replay). Repeated; the last server
	// is measured.
	var srv *server
	var dir string
	var setups []float64
	reps := 3
	if e.tr != nil {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if srv, dir, err = s.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer srv.stop()
	s.res.e2e["setup_s"] = median(setups)
	s.res.headlineMetric("distinct_requests", "count", float64(len(s.mix.reqs)))
	if e.tr != nil {
		return s.traced(srv, dir)
	}

	// Rounds of a loopback open-loop second, a loopback closed-loop half
	// second and an in-process closed-loop half second, so every loop
	// samples the whole run. The gated capacity is the in-process one, a
	// median over rounds: on a shared 2-CPU host the loopback round trip
	// swings by a third between runs, which would drown any change in the
	// server itself. The loopback figures are printed.
	rounds := max(1, int(e.seconds/(2*time.Second)))
	var opens []*openWindow
	var closed []closedResult
	var inproc []handlerResult
	before := readUsage()
	for k := 0; k < rounds; k++ {
		opens = append(opens, s.openWindow(srv, k*openRate, openRate))
		closed = append(closed, s.closedWindow(srv, time.Second/2))
		inproc = append(inproc, s.handlerWindow(srv, time.Second/2))
	}
	after := readUsage()

	r := s.res
	var lat, late, rates, p50s []float64
	ok, wall := 0, 0.0
	for _, o := range opens {
		lat = append(lat, o.lat...)
		late = append(late, o.late...)
		r.attempted += len(o.lat)
	}
	for _, c := range closed {
		ok += c.ok
		wall += c.wall.Seconds()
		r.attempted += c.ok + c.failed
	}
	for _, h := range inproc {
		rates = append(rates, float64(h.ok)/h.wall.Seconds())
		p50s = append(p50s, median(h.lat))
		r.attempted += h.ok + h.failed
	}
	r.e2e["ops_per_s"] = median(rates)
	r.perOp(before, after, r.attempted)
	p99, q := tail(lat, 0.99)
	lateTail, lq := tail(late, 0.99)
	r.headlineMetric("rounds", "count", float64(rounds))
	r.headlineMetric("handler_req_per_s", "1/s", r.e2e["ops_per_s"])
	r.headlineMetric("handler_ms_p50", "ms", median(p50s))
	r.headlineMetric("open_rate", "1/s", openRate)
	r.headlineMetric("open_requests", "count", float64(len(lat)))
	r.headlineMetric("req_p50_ms", "ms", median(lat))
	r.headlineMetric("req_"+pctName(q)+"_ms", "ms", p99)
	r.headlineMetric("gen_late_"+pctName(lq)+"_ms", "ms", lateTail)
	r.headlineMetric("closed_conns", "count", float64(e.workers))
	r.headlineMetric("req_per_s", "1/s", float64(ok)/wall)
	return r, nil
}

func (s *serveRun) setup() (*server, string, error) {
	dir, err := os.MkdirTemp(s.e.work, "serve-")
	if err != nil {
		return nil, "", err
	}
	disk, err := core.OpenDiskStore(dir, s.cv, nil)
	if err != nil {
		return nil, "", err
	}
	srv, err := startServer(serve.Config{Disk: disk, Repetitions: 1, Seed: 42, CodeVersion: s.cv}, s.e.workers)
	if err != nil {
		return nil, "", err
	}
	for _, r := range s.mix.reqs {
		status, body, err := srv.post(r.body)
		if err != nil || status != http.StatusOK {
			srv.stop()
			return nil, "", fmt.Errorf("set-up request %s: status %d: %v %s", r.body, status, err, body)
		}
		r.want = body
	}
	return srv, dir, nil
}

// openWindow is one open-loop window: n requests at openRate, taken from
// the mix sequence at from.
type openWindow struct {
	lat, late, rtt []float64 // ms, ms, us
	replays, execs uint64
	shed           int
}

func (s *serveRun) openWindow(srv *server, from, n int) *openWindow {
	w := &openWindow{}
	before := srv.srv.Stats()
	rtt := make([]float64, n)
	shed := make([]bool, n)
	tr := s.e.tr
	scope := tr.Begin("window", -1, "loop", "open")
	prev := tr.SetScope(scope)
	req := func(i int) *serveReq { return s.mix.reqs[s.mix.seq[(from+i)%len(s.mix.seq)]] }
	results := openLoop(schedule{start: time.Now(), interval: time.Second / openRate}, n, s.e.workers, func(i int) bool {
		r := req(i)
		id := tr.Begin("request", scope)
		start := time.Now()
		status, body, err := srv.post(r.body)
		rtt[i] = sinceUS(start)
		tr.End(id)
		shed[i] = status == http.StatusTooManyRequests
		return err == nil && status == http.StatusOK && bytes.Equal(body, r.want)
	})
	tr.SetScope(prev)
	tr.End(scope)
	after := srv.srv.Stats()
	w.replays, w.execs = after.Hits-before.Hits, after.Executions-before.Executions
	s.noExecutions(srv, before, "open-loop window")
	for i, o := range results {
		w.lat = append(w.lat, float64(o.latency)/float64(time.Millisecond))
		w.late = append(w.late, float64(o.lateness)/float64(time.Millisecond))
		if !o.ok {
			s.res.fail(1, "open-loop request %d (%s): not a 200 with the set-up body", from+i, req(i).body)
		}
		if shed[i] {
			w.shed++
		}
	}
	w.rtt = rtt
	return w
}

// closedResult is a closed-loop window: successful and failed requests and
// the wall time.
type closedResult struct {
	ok, failed int
	wall       time.Duration
}

// closedWindow runs e.workers closed-loop connections for d over the mix.
func (s *serveRun) closedWindow(srv *server, d time.Duration) closedResult {
	before := srv.srv.Stats()
	done, failed, wall := closedLoop(d, s.e.workers, func(i int) bool {
		return srv.check(s.mix.reqs[s.mix.seq[i%len(s.mix.seq)]])
	})
	if failed > 0 {
		s.res.fail(failed, "closed loop: %d requests not a 200 with the set-up body", failed)
	}
	s.noExecutions(srv, before, "closed-loop window")
	return closedResult{ok: done - failed, failed: failed, wall: wall}
}

// noExecutions fails the run if the server executed any cell since before:
// every timed window must be pure replay.
func (s *serveRun) noExecutions(srv *server, before core.CacheStats, what string) {
	if ex := srv.srv.Stats().Executions - before.Executions; ex != 0 {
		s.res.fail(int(ex), "%s executed %d cells, want 0", what, ex)
	}
}

// handlerResult is an in-process closed-loop window: e.workers goroutines
// calling the server's handler directly, and each call's time (ms).
type handlerResult struct {
	closedResult
	lat []float64
}

func (s *serveRun) handlerWindow(srv *server, d time.Duration) handlerResult {
	before := srv.srv.Stats()
	h := srv.srv.Handler()
	var mu sync.Mutex
	var lat []float64
	done, failed, wall := closedLoop(d, s.e.workers, func(i int) bool {
		r := s.mix.reqs[s.mix.seq[i%len(s.mix.seq)]]
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(r.body))
		start := time.Now()
		h.ServeHTTP(rec, req)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		mu.Lock()
		lat = append(lat, ms)
		mu.Unlock()
		return rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), r.want)
	})
	if failed > 0 {
		s.res.fail(failed, "in-process handler: %d requests not a 200 with the set-up body", failed)
	}
	s.noExecutions(srv, before, "in-process window")
	return handlerResult{closedResult{ok: done - failed, failed: failed, wall: wall}, lat}
}

// traced runs the open loop on a second server over the same warm directory
// whose store is wrapped in the timing decorator (serve composes its own disk
// tier, so the decorator goes in through Config.Store over an equivalent
// core.TieredStore), compares in-process capacity with the untraced set-up
// server, re-times the handler and the loopback round trip on the untraced
// server, and derives the per-layer metrics.
func (s *serveRun) traced(plain *server, dir string) (*result, error) {
	tr, l := s.e.tr, s.res.layers
	plainClosed := s.handlerWindow(plain, s.e.seconds/4)

	disk, err := core.OpenDiskStore(dir, s.cv, nil)
	if err != nil {
		return nil, err
	}
	store := newTimedStore(core.NewTieredStore(nil, disk), tr)
	srv, err := startServer(serve.Config{Store: store, Repetitions: 1, Seed: 42, CodeVersion: s.cv}, s.e.workers)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	for _, r := range s.mix.reqs {
		if !srv.check(r) {
			s.res.fail(1, "traced server: %s: not a 200 with the set-up body", r.body)
		}
	}
	ix0 := len(tr.Spans())
	open := s.openWindow(srv, 0, int(s.e.seconds.Seconds()/2*openRate))
	spans := tr.Spans()[ix0:]
	tracedClosed := s.handlerWindow(srv, s.e.seconds/4)
	s.res.attempted += len(open.lat) + plainClosed.ok + plainClosed.failed + tracedClosed.ok + tracedClosed.failed

	ix := indexSpans(spans)
	storeLayers(l, ix, 1)
	executeLayers(l, ix, store, 1, 0, s.e.workers)
	tierLayers(l, []core.CacheStats{srv.srv.Stats()})
	keys, snaps := store.seen()
	snapshotLayers(l, keys, snaps)
	if err := diskGetLayer(l, dir, s.cv, keys); err != nil {
		return nil, err
	}

	// In-process handler time on the same mix, and the loopback HTTP cost of
	// a request that does no work (GET /healthz).
	var handler, wire []float64
	h := plain.srv.Handler()
	for _, r := range s.mix.reqs {
		for i := 0; i < 3; i++ {
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(r.body)))
			handler = append(handler, sinceUS(start))
		}
		docs, _, _, err := report.DecodeWire(r.want)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := report.EncodeWire(docs, nil); err != nil {
			return nil, err
		}
		wire = append(wire, sinceUS(start))
	}
	var net []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		resp, err := plain.client.Get(plain.url + "/healthz")
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		net = append(net, sinceUS(start))
	}
	l["serve.handler_us_p50"] = median(handler)
	l["serve.handler_us_p99"], _ = tail(handler, 0.99)
	l["serve.net_us_p50"] = median(net)
	l["serve.req_ms_p99"], _ = tail(open.lat, 0.99)
	l["serve.gen_late_ms_p99"], _ = tail(open.late, 0.99)
	l["serve.replays"] = float64(open.replays)
	l["serve.executions"] = float64(open.execs)
	l["serve.shed"] = float64(open.shed)
	l["report.encode_wire_us"] = median(wire)
	rtt := median(open.rtt)
	l["resid.serve_pct"] = 100 * (rtt - l["serve.handler_us_p50"] - l["serve.net_us_p50"]) / rtt
	plainRate := float64(plainClosed.ok) / plainClosed.wall.Seconds()
	tracedRate := float64(tracedClosed.ok) / tracedClosed.wall.Seconds()
	l["trace.overhead_pct"] = 100 * (plainRate/tracedRate - 1)
	l["trace.spans"] = float64(len(spans))
	s.res.headlineMetric("rtt_us_p50", "us", rtt)
	s.res.headlineMetric("untraced_handler_req_per_s", "1/s", plainRate)
	s.res.headlineMetric("traced_handler_req_per_s", "1/s", tracedRate)
	return s.res, nil
}
