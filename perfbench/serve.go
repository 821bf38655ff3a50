package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/compiler"
	"repro/internal/service"
)

// Load shape of the serve workload. The generator and the server share
// the machine's two cores, so the load uses two connections.
const (
	clients = 2
	// latencyLimit is the p99 a rate must meet, with no failures and no
	// growing backlog, to count towards serve_max_rps.
	latencyLimit = 10 * time.Millisecond
	// window is the number of requests in one measurement window: a
	// window's p99 has ten samples beyond it.
	window = 1000
	// minRounds is the fewest rounds a run measures, so every rate has
	// a median of at least three windows.
	minRounds = 3
)

// serveRates are the fixed offered rates, in requests per second. When
// the benchmark was defined the mix's open-loop knee (the rate past which
// a window's p99 passes the limit) moved between about 1000/s and 2000/s
// with the shared host's load. The first rate, a quarter to a half of
// it, is the middle rate latency is reported at: far enough below the
// knee that queueing does not multiply the host's drift. serve_max_rps is
// the highest rate that meets the limit.
var serveRates = []float64{500, 1500, 1750, 2000, 2250}

// spanHeader carries the client span's index to the handler wrapper,
// which makes the server span its child.
const spanHeader = "X-Perfbench-Span"

// server is an in-process lsrd on loopback with an on-disk store.
type server struct {
	svc *service.Service
	srv *http.Server
	// handler is what srv serves, for set-up requests made in process.
	handler http.Handler
	url     string
	done    chan error
}

// startServer serves a new service over the store in dir. With a tracer,
// the handler's time on each request that carries a client span is a
// span.
func startServer(dir string, tr *tracer) (*server, error) {
	svc, err := service.NewWithError(service.Config{StoreDir: dir, CacheEntries: lruSize}, nil)
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get(spanHeader))
			if err != nil {
				inner.ServeHTTP(w, r)
				return
			}
			i := tr.child(parent, "service")
			inner.ServeHTTP(w, r)
			tr.end(i)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: svc, srv: &http.Server{Handler: h}, handler: h, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for it and flushes the store's index.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.FlushStore())
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// sourceBody is the JSON body of a /v1/run or /v1/compile request with
// default options.
func sourceBody(src string) []byte {
	b, _ := json.Marshal(service.CompileRequest{Source: src}) // a struct of strings always marshals
	return b
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, body []byte, span int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveEnv is a running serve workload: the measured server and the
// client that loads it.
type serveEnv struct {
	seed   uint64
	srv    *server
	client *http.Client
	// requests numbers traced requests; a request's spans share its
	// number.
	requests atomic.Uint64
}

// fillStore builds the store the workload starts from, as the run's
// input: one lsrd compiles every warm and hot key into a new store
// directory and stops. It is not part of the timed set-up: hundreds of
// file creations would time the shared host's file system more than
// the service.
func (e *serveEnv) fillStore() (string, error) {
	dir, err := scratchDir("serve-")
	if err != nil {
		return "", err
	}
	fill, err := startServer(dir, nil)
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	for k := hotKeys + warmKeys - 1; k >= 0 && err == nil; k-- {
		err = e.runKey(fill.handler, k)
	}
	if cerr := fill.close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("filling the store: %w", err)
	}
	return dir, nil
}

// serveSetup is the timed set-up: the measured lsrd starts over the
// store in dir and loads the hot keys into its LRU.
func (e *serveEnv) serveSetup(dir string, tr *tracer) (*server, error) {
	srv, err := startServer(dir, tr)
	if err != nil {
		return nil, err
	}
	for k := 0; k < hotKeys && err == nil; k++ {
		err = e.runKey(srv.handler, k)
	}
	if err != nil {
		closeServer(srv)
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return srv, nil
}

// runKey runs key k's source once through h and checks the value. Set-up
// requests call the handler in process rather than over loopback, so
// they time the service and not the host's thread wake-ups.
func (e *serveEnv) runKey(h http.Handler, k int) error {
	src, expect := serveSource(e.seed, k)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(sourceBody(src)))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return checkRunResponse(rec.Code, rec.Body.Bytes(), expect)
}

// closeServer stops srv and reports an error it stops with; the store
// stays for the next server.
func closeServer(srv *server) {
	if err := srv.close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: stopping lsrd:", err)
	}
}

// checkRunResponse accepts only a 200 carrying the expected value; a
// shed (429) or timed-out (504) request is a failure like any other.
func checkRunResponse(status int, body []byte, expect string) error {
	if status != http.StatusOK {
		return fmt.Errorf("/v1/run: HTTP %d: %.200s", status, body)
	}
	var rr service.RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return fmt.Errorf("/v1/run: %w", err)
	}
	if rr.Value != expect {
		return fmt.Errorf("/v1/run: value %s, want %s", rr.Value, expect)
	}
	return nil
}

// phaseStats is one fixed-rate phase's outcome.
type phaseStats struct {
	// latMs is each request's time from when it was due to its reply;
	// lateMs is how late the generator woke for requests it waited for.
	latMs, lateMs []float64
	// tailLagMs is the median delay from due to send over the phase's
	// last tenth: it grows when requests arrive faster than served.
	tailLagMs float64
	// elapsed is the phase's length, from its first due time to its
	// last reply.
	elapsed  time.Duration
	t        tally
	compiles []compileCheck
}

// compileCheck is a /v1/compile reply kept for checking after the phase.
type compileCheck struct {
	source string
	resp   service.CompileResponse
}

// runPhase offers n requests at a fixed rate (open loop: each is due at
// a fixed time whether or not earlier ones have finished) and times
// every request from when it was due.
//
// With rate 0 the phase is closed-loop instead: each connection sends
// its next of n requests as soon as the previous reply arrives.
func (e *serveEnv) runPhase(endpoint string, gen *requestGen, rate float64, n int, tr *tracer) *phaseStats {
	reqs := make([]request, n)
	bodies := make([][]byte, n)
	for i := range reqs {
		reqs[i] = gen.next()
		bodies[i] = sourceBody(reqs[i].source)
	}
	ps := &phaseStats{}
	lat := make([]float64, n)
	lag := make([]float64, n)
	late := make([]float64, n)
	verdicts := make([]error, n)
	compiled := make([]*service.CompileResponse, n)
	url := e.srv.url + endpoint
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// A request is timed from when it was due. If the worker
				// was idle and slept until then, the timer's own lateness
				// is the generator's, not the server's: the request is
				// timed from when it was sent, and the lateness reported
				// on its own.
				from := start.Add(time.Duration(i) * interval)
				late[i] = -1
				if rate == 0 {
					from = time.Now()
				} else if wait := time.Until(from); wait > 0 {
					time.Sleep(wait)
					now := time.Now()
					late[i] = ms(now.Sub(from))
					from = now
				}
				lag[i] = ms(time.Since(from))
				span := -1
				if tr != nil {
					span = tr.begin(e.requests.Add(1), "http", -1)
				}
				status, body, err := post(e.client, url, bodies[i], span)
				if tr != nil {
					tr.end(span)
				}
				lat[i] = ms(time.Since(from))
				if err == nil && endpoint == "/v1/compile" {
					err = decodeCompile(status, body, &compiled[i])
				} else if err == nil {
					err = checkRunResponse(status, body, reqs[i].expect)
				}
				verdicts[i] = err
			}
		}()
	}
	wg.Wait()
	ps.elapsed = time.Since(start)
	for i := range reqs {
		ps.t.check(verdicts[i])
		if compiled[i] != nil {
			ps.compiles = append(ps.compiles, compileCheck{source: reqs[i].source, resp: *compiled[i]})
		}
		if late[i] >= 0 {
			ps.lateMs = append(ps.lateMs, late[i])
		}
	}
	ps.latMs = lat
	ps.tailLagMs = median(lag[n-n/10:])
	return ps
}

// decodeCompile accepts a 200 /v1/compile reply; its key and statistics
// are checked after the phase, outside the timed region.
func decodeCompile(status int, body []byte, into **service.CompileResponse) error {
	if status != http.StatusOK {
		return fmt.Errorf("/v1/compile: HTTP %d: %.200s", status, body)
	}
	var cr service.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("/v1/compile: %w", err)
	}
	*into = &cr
	return nil
}

// checkCompiles compares every /v1/compile reply with a local compile
// of the same source: same cache key, same static statistics.
func checkCompiles(t *tally, cs []compileCheck) {
	opts := bench.PaperOptions()
	for _, cc := range cs {
		c, err := compiler.Compile(cc.source, opts)
		switch {
		case err != nil:
			err = fmt.Errorf("/v1/compile check: %w", err)
		case cc.resp.Key != service.KeyFor(cc.source, opts).String():
			err = fmt.Errorf("/v1/compile: key %s, want %s", cc.resp.Key, service.KeyFor(cc.source, opts))
		case cc.resp.Stats != c.Stats:
			err = fmt.Errorf("/v1/compile: stats %+v, want %+v", cc.resp.Stats, c.Stats)
		}
		if err != nil {
			t.check(err)
		}
	}
}

// rateStats pools one offered rate's windows.
type rateStats struct {
	lat      []float64 // every request
	p99, lag []float64 // per window
	failed   int64
}

func (r *rateStats) add(ps *phaseStats) {
	r.lat = append(r.lat, ps.latMs...)
	r.p99 = append(r.p99, percentile(ps.latMs, 0.99))
	r.lag = append(r.lag, ps.tailLagMs)
	r.failed += ps.t.failed
}

// pass reports whether the rate meets the latency limit with no
// failures and no growing backlog, judged on the median window.
func (r *rateStats) pass() bool {
	lim := ms(latencyLimit)
	return r.failed == 0 && median(r.p99) <= lim && median(r.lag) <= lim
}

// runServe measures in rounds. Each round offers the rates in turn on
// /v1/run, then the middle rate on /v1/compile, one window each. Spread
// over the run, a rate's windows see the machine at different times,
// and the median window discounts a stall that hits one of them. The
// untraced run offers only the middle rate, which its metrics come
// from; the traced run offers every rate, for serve_max_rps.
func runServe(cfg config) (*result, error) {
	var tr *tracer
	rates := serveRates[:1]
	if cfg.trace {
		tr = newTracer(false)
		rates = serveRates
	}
	env := &serveEnv{seed: cfg.seed, client: newClient()}
	defer env.client.CloseIdleConnections()
	dir, err := env.fillStore()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, st, err := firstSetup(func() (*server, error) { return env.serveSetup(dir, tr) }, closeServer)
	if err != nil {
		return nil, err
	}
	env.srv = srv
	defer closeServer(env.srv)
	var t tally
	var allocBytes uint64
	var setupErr error
	phase := 0
	run := func(endpoint string, rate float64, tr *tracer) *phaseStats {
		phase++
		_, b0 := heapAllocs()
		ps := env.runPhase(endpoint, newRequestGen(cfg.seed, phase), rate, window, tr)
		_, b1 := heapAllocs()
		allocBytes += b1 - b0
		if !cfg.trace && setupErr == nil {
			setupErr = st.sample()
		}
		t.attempted += ps.t.attempted
		t.failed += ps.t.failed
		fmt.Fprintf(os.Stderr, "perfbench: %s at %.0f/s: p50 %.3f ms, p99 %.3f ms, tail lag %.3f ms, failed %d\n",
			endpoint, rate, percentile(ps.latMs, 0.5), percentile(ps.latMs, 0.99), ps.tailLagMs, ps.t.failed)
		return ps
	}
	before, err := scrape(env.client, env.srv.url)
	if err != nil {
		return nil, err
	}
	runs := make([]rateStats, len(rates))
	var mid rateStats // the middle rate, /v1/run and /v1/compile
	var untraced, traced []float64
	var late []float64
	var compiles []compileCheck
	closedN, closedTime := 0, time.Duration(0)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	roundTime := time.Duration(0)
	for round := 0; round < minRounds || time.Now().Add(roundTime).Before(deadline); round++ {
		t0 := time.Now()
		if tr != nil {
			// An untraced window at the middle rate, for the tracing
			// overhead.
			untraced = append(untraced, percentile(run("/v1/run", rates[0], nil).latMs, 0.5))
		}
		for i, rate := range rates {
			ps := run("/v1/run", rate, tr)
			runs[i].add(ps)
			late = append(late, ps.lateMs...)
			if i == 0 {
				mid.add(ps)
				traced = append(traced, percentile(ps.latMs, 0.5))
			}
		}
		ps := run("/v1/compile", rates[0], tr)
		mid.add(ps)
		late = append(late, ps.lateMs...)
		compiles = append(compiles, ps.compiles...)
		if tr != nil {
			ps = run("/v1/run", 0, tr)
			closedN += len(ps.latMs)
			closedTime += ps.elapsed
		}
		roundTime = time.Since(t0)
	}
	if setupErr != nil {
		return nil, setupErr
	}
	after, err := scrape(env.client, env.srv.url)
	if err != nil {
		return nil, err
	}
	checkCompiles(&t, compiles)

	res := t.result()
	if tr == nil {
		// One operation is one request at the middle rate. Allocations
		// are the whole process's, lsrd's and the load generator's, over
		// every phase; the set-ups sampled between phases are left out.
		setOpMetrics(res, mid.lat, float64(allocBytes)/float64(t.attempted), st.seconds())
		return res, nil
	}
	maxRPS := 0.0
	for i, rate := range rates {
		if runs[i].pass() {
			maxRPS = rate
		}
		fmt.Fprintf(os.Stderr, "perfbench: /v1/run at %.0f/s: median window p99 %.3f ms, pass=%v\n", rate, median(runs[i].p99), runs[i].pass())
	}
	res.set("serve_ms_p50", "ms", percentile(mid.lat, 0.50))
	res.set("serve_ms_p99", "ms", median(mid.p99))
	res.set("serve_max_rps", "1/s", maxRPS)
	res.set("serve.closed_rps", "1/s", float64(closedN)/closedTime.Seconds())
	d := after.delta(before)
	hits, misses := d.sum("lsrd_cache_hits_total"), d.sum("lsrd_cache_misses_total")
	storeHits, storeMisses := d.sum("lsrd_store_hits_total"), d.sum("lsrd_store_misses_total")
	res.set("cache.lru_hit_ratio", "ratio", ratio(hits, hits+misses))
	res.set("cache.dedup_joins", "count", d.sum("lsrd_cache_dedup_total"))
	res.set("store.hit_ratio", "ratio", ratio(storeHits, storeHits+storeMisses))
	// Every compile of a new key adds one entry to the store's index.
	res.set("store.puts", "count", d.sum("lsrd_store_entries"))
	res.set("service.compiles", "count", d.sum("lsrd_compiles_total"))
	res.set("service.shed", "count", d.sum("lsrd_shed_total"))
	// Every request looks its key up in the LRU once, so the lookups
	// count the requests served.
	res.set("serve.tier_share.lru", "ratio", ratio(hits, hits+misses))
	res.set("serve.tier_share.store", "ratio", ratio(storeHits, hits+misses))
	res.set("serve.tier_share.compile", "ratio", ratio(d.sum("lsrd_compiles_total"), hits+misses))
	res.set("serve.gen_late_ms_p99", "ms", percentile(late, 0.99))
	layers := tr.selfTimes()
	res.set("service.handler_ms_p50", "ms", nsMedian(layerOf(layers, "service").self))
	res.set("http.overhead_ms_p50", "ms", nsMedian(layerOf(layers, "http").self))
	res.set("trace.overhead_ratio", "ratio", ratio(median(traced), median(untraced))-1)
	return finishTrace(res, tr, "serve", cfg.seed)
}

// nsMedian is the median of nanosecond samples, in milliseconds.
func nsMedian(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e6
	}
	return median(xs)
}
