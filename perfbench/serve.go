package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pftk/internal/core"
	"pftk/internal/markov"
	"pftk/internal/obs"
	"pftk/internal/serve"
	"pftk/internal/tracez"
)

// The serve workloads host pftkd's handler, serve.New, behind a
// net/http server on a loopback listener in the benchmark process, and
// drive it closed loop: serveConns callers on keep-alive connections,
// each waiting for its reply before sending again, as callers of pftkd
// do. There is no rate search; a separate daemon and an open-loop
// generator both read too noisy on two processors.
//
// serve-hot cycles single-point predicts through hotPoints operating
// points: after warm-up every request is a cache hit. serve-mixed sends
// a seeded sequence: about 75% predicts on points never repeated (one
// in five also asking for the Markov chain), 20% repeats of the hot set
// and 5% simulate submissions of short runs with distinct seeds, whose
// results are fetched after the timed phase.
const (
	serveConns     = 2
	hotPoints      = 64
	warmupRequests = 5000
	warmupUnique   = 1000
	floorRequests  = 20000
	simDuration    = 5.0
	// window is the interval ops_per_s is counted over; the reported
	// rate is the median window.
	window = 500 * time.Millisecond
	// maxJobs keeps every simulate job of a run until it is fetched
	// after the timed phase (pftkd's default retains 4096).
	maxJobs = 1 << 17
	// tracecap is pftkd's default -tracecap.
	tracecap = 4096
	// jobWait bounds the wait for a simulate job after the timed phase;
	// the whole backlog drains in well under a second.
	jobWait = 30 * time.Second
)

// Request kinds of the mixed sequence.
const (
	kindHot = iota
	kindUnique
	kindSim
)

// Streams keep the generated inputs of different purposes disjoint.
const (
	streamHot = iota + 1
	streamTimed
	streamWarmup
)

// unit returns a uniform value in [0, 1) that depends only on (seed,
// stream, i, k): the inputs are a pure function of the seed, whatever
// order the callers consume them in.
func unit(seed uint64, stream, i, k uint64) float64 {
	x := seed
	for _, v := range [...]uint64{stream, i, k} {
		x = splitmix(x ^ splitmix(v))
	}
	return float64(x>>11) / (1 << 53)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// point generates operating point i of a stream: p in [1e-3, 0.3], RTT
// in [50, 500] ms, T0 in [0.5, 4] s, Wm in [4, 32] packets.
func point(seed, stream, i uint64, withMarkov bool) serve.PredictRequest {
	r := serve.PredictRequest{
		P:   math.Pow(10, -3+2.5*unit(seed, stream, i, 1)),
		RTT: 0.05 + 0.45*unit(seed, stream, i, 2),
		T0:  0.5 + 3.5*unit(seed, stream, i, 3),
		Wm:  float64(4 + int(29*unit(seed, stream, i, 4))),
	}
	if withMarkov {
		r.Models = []string{serve.ModelNameApprox, serve.ModelNameFull, serve.ModelNameMarkov, serve.ModelNameTDOnly, serve.ModelNameThroughput}
	}
	return r
}

// simRequest generates simulate submission i: a short Reno run with its
// own seed.
func simRequest(seed, i uint64) serve.SimulateRequest {
	return serve.SimulateRequest{
		RTT:      0.05 + 0.25*unit(seed, streamTimed, i, 5),
		LossRate: 0.005 + 0.045*unit(seed, streamTimed, i, 6),
		Duration: simDuration,
		Seed:     splitmix(seed ^ splitmix(i)),
	}
}

// request is one generated request.
type request struct {
	kind int
	hot  int // hot-set index for kindHot
	path string
	body []byte
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a generated request: %v", err))
	}
	return b
}

// handler serves pftkd's handler plus a no-op route, on one listener.
// With a tracer installed it records each ServeHTTP call as a span
// whose parent is the client span named in the X-Bench-Span header.
type handler struct {
	srv *serve.Server
	tr  atomic.Pointer[tracer]
}

var noopBody = []byte("{}\n")

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/noop" {
		// The net/http floor: same client, listener and request, no
		// work. The body is drained as serve's decoder would.
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(noopBody)
		return
	}
	tr := h.tr.Load()
	if tr == nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	sp := tr.begin("serve.handler", parent, parent)
	h.srv.ServeHTTP(w, r)
	tr.end(sp)
}

// serveBench is one booted server with its client and inputs.
type serveBench struct {
	seed   uint64
	mixed  bool
	base   string
	h      *handler
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client

	hot     [][]byte // request bodies of the hot set
	hotWant [][]byte // response body per hot point, checked in warm-up
	hotBad  []bool   // hot points whose response failed the check
}

func bootServe(seed uint64, mixed bool) (*serveBench, error) {
	// pftkd's defaults: registry and request tracing on, access log
	// off, workers = GOMAXPROCS.
	srv := serve.New(serve.Config{
		Registry: obs.New(),
		Tracer:   tracez.New(tracez.Options{Shards: 8, PerShard: (tracecap + 7) / 8}),
		MaxJobs:  maxJobs,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	b := &serveBench{
		seed:   seed,
		mixed:  mixed,
		base:   "http://" + ln.Addr().String(),
		h:      &handler{srv: srv},
		srv:    srv,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	b.hs = &http.Server{Handler: b.h, ReadHeaderTimeout: 5 * time.Second}
	go func() { b.served <- b.hs.Serve(ln) }()
	for k := 0; k < hotPoints; k++ {
		b.hot = append(b.hot, mustJSON(point(seed, streamHot, uint64(k), false)))
	}
	return b, nil
}

// close stops the listener, drains the server's jobs and waits for the
// serving goroutine to return.
func (b *serveBench) close() error {
	err := b.hs.Close()
	b.srv.Close()
	b.client.CloseIdleConnections()
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one request, reads the response body into buf and returns
// the response.
func (b *serveBench) post(path string, body []byte, span int64, buf *bytes.Buffer) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, b.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set("X-Bench-Span", strconv.FormatInt(span, 10))
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp, err
}

func (b *serveBench) get(path string, v any) error {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return err
	}
	// The body is only read; a Close error changes nothing.
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// gen returns request i of the timed sequence.
func (b *serveBench) gen(i uint64) request {
	if !b.mixed {
		k := int(i % hotPoints)
		return request{kind: kindHot, hot: k, path: "/v1/predict", body: b.hot[k]}
	}
	switch u := unit(b.seed, streamTimed, i, 0); {
	case u < 0.75:
		withMarkov := unit(b.seed, streamTimed, i, 7) < 0.2
		return request{kind: kindUnique, path: "/v1/predict", body: mustJSON(point(b.seed, streamTimed, i, withMarkov))}
	case u < 0.95:
		k := int(hotPoints * unit(b.seed, streamTimed, i, 8))
		return request{kind: kindHot, hot: k, path: "/v1/predict", body: b.hot[k]}
	default:
		return request{kind: kindSim, path: "/v1/simulate", body: mustJSON(simRequest(b.seed, i))}
	}
}

// warm fills the cache with the hot set, verifies each hot response
// against the closed forms, then sends a fixed warm-up load.
func (b *serveBench) warm() error {
	var buf bytes.Buffer
	b.hotWant = make([][]byte, hotPoints)
	b.hotBad = make([]bool, hotPoints)
	for k, body := range b.hot {
		resp, err := b.post("/v1/predict", body, 0, &buf)
		if err != nil {
			return err
		}
		b.hotWant[k] = bytes.Clone(buf.Bytes())
		req := point(b.seed, streamHot, uint64(k), false)
		if resp.StatusCode != http.StatusOK || checkPredict(req, bodySum(b.hotWant[k]), nil) != nil {
			b.hotBad[k] = true
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < warmupRequests; i += serveConns {
				body := b.hot[i%hotPoints]
				if b.mixed && i < warmupUnique {
					body = mustJSON(point(b.seed, streamWarmup, uint64(i), i%5 == 0))
				}
				resp, err := b.post("/v1/predict", body, 0, &buf)
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("warm-up request: %s", resp.Status)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// caller is one closed-loop connection's record of a phase.
type caller struct {
	attempted, failed int
	errs              []error
	// lat holds client-observed latencies; queue and service the
	// X-Queue-Seconds and X-Service-Seconds of misses (traced phase).
	lat, queue, service *hist
	// done counts the requests completed in each window of the phase.
	done   []int
	unique []keptBody // mixed: predict responses checked after the phase
	jobs   []keptJob  // mixed: simulate jobs fetched after the phase
}

// keptBody is a unique predict's index and the FNV-1a hash of its
// response body. Keeping the hash rather than the body keeps the
// benchmark's memory from growing with the server's throughput.
type keptBody struct {
	i   uint64
	sum uint64
}

func bodySum(body []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return h.Sum64()
}

type keptJob struct {
	i  uint64
	id string
}

func (c *caller) fail(err error) {
	c.failed++
	if len(c.errs) < 3 {
		c.errs = append(c.errs, err)
	}
}

// phase drives the closed loop for d and returns each caller's record
// and the phase's wall time.
func (b *serveBench) phase(d time.Duration, next *atomic.Uint64, tr *tracer) ([]*caller, float64) {
	b.h.tr.Store(tr)
	defer b.h.tr.Store(nil)
	callers := make([]*caller, serveConns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range callers {
		callers[c] = &caller{lat: newHist(), queue: newHist(), service: newHist(), done: make([]int, int(d/window)+2)}
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				r := b.gen(i)
				sp := tr.begin("client.request", 0, 0)
				t := time.Now()
				resp, err := b.post(r.path, r.body, sp.id, &buf)
				now := time.Now()
				tr.end(sp)
				cl.attempted++
				cl.lat.add(now.Sub(t).Seconds())
				if w := int(now.Sub(start) / window); w < len(cl.done) {
					cl.done[w]++
				}
				if err != nil {
					cl.fail(err)
					continue
				}
				if err := b.record(cl, r, i, resp, buf.Bytes(), tr != nil); err != nil {
					cl.fail(err)
				}
			}
		}(callers[c])
	}
	wg.Wait()
	return callers, time.Since(start).Seconds()
}

// record checks what can be checked at once and keeps the rest.
func (b *serveBench) record(cl *caller, r request, i uint64, resp *http.Response, body []byte, traced bool) error {
	switch r.kind {
	case kindHot:
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("hot predict %d: %s", r.hot, resp.Status)
		}
		if b.hotBad[r.hot] || !bytes.Equal(body, b.hotWant[r.hot]) {
			return fmt.Errorf("hot predict %d: response differs from the closed forms", r.hot)
		}
	case kindUnique:
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("predict %d: %s", i, resp.Status)
		}
		cl.unique = append(cl.unique, keptBody{i: i, sum: bodySum(body)})
		if traced {
			q, qerr := strconv.ParseFloat(resp.Header.Get("X-Queue-Seconds"), 64)
			sv, serr := strconv.ParseFloat(resp.Header.Get("X-Service-Seconds"), 64)
			if qerr != nil || serr != nil {
				return fmt.Errorf("predict %d: unreadable queue/service headers", i)
			}
			cl.queue.add(q)
			cl.service.add(sv)
		}
	case kindSim:
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("simulate %d: %s", i, resp.Status)
		}
		var job serve.Job
		if err := json.Unmarshal(body, &job); err != nil {
			return fmt.Errorf("simulate %d: %w", i, err)
		}
		cl.jobs = append(cl.jobs, keptJob{i: i, id: job.ID})
	}
	return nil
}

// checkPredict verifies a predict response, given as the hash of its
// body, against the body serve must send for the request: the
// normalized request and every requested model's rate evaluated by core
// or markov at the point. The evaluations are timed into ev when set.
func checkPredict(req serve.PredictRequest, sum uint64, ev *evalTimer) error {
	req.B = core.DefaultB
	if req.Models == nil {
		req.Models = []string{serve.ModelNameApprox, serve.ModelNameFull, serve.ModelNameTDOnly, serve.ModelNameThroughput}
	}
	pr := core.Params{RTT: req.RTT, T0: req.T0, Wm: req.Wm, B: req.B}
	want := serve.PredictResponse{Request: req, Rates: map[string]float64{}}
	for _, m := range req.Models {
		t := ev.start()
		switch m {
		case serve.ModelNameFull:
			want.Rates[m] = core.SendRateFull(req.P, pr)
		case serve.ModelNameApprox:
			want.Rates[m] = core.SendRateApprox(req.P, pr)
		case serve.ModelNameTDOnly:
			want.Rates[m] = core.SendRateTDOnly(req.P, req.RTT, float64(req.B))
		case serve.ModelNameThroughput:
			want.Rates[m] = core.Throughput(req.P, pr)
		case serve.ModelNameMarkov:
			rate, err := markov.SendRate(req.P, markov.Config{RTT: req.RTT, T0: req.T0, Wm: int(req.Wm), B: req.B})
			ev.markov(t)
			if err != nil {
				return fmt.Errorf("markov at the requested point: %w", err)
			}
			want.Rates[m] = rate
			continue
		}
		ev.core(t)
	}
	body, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if bodySum(append(body, '\n')) != sum {
		return errors.New("response differs from core and markov at the requested point")
	}
	return nil
}

// evalTimer accumulates the time the output check spends in core and
// markov. A nil *evalTimer times nothing.
type evalTimer struct {
	coreNS, markovNS int64
	coreN, markovN   int
}

func (e *evalTimer) start() time.Time {
	if e == nil {
		return time.Time{}
	}
	return time.Now()
}

func (e *evalTimer) core(t time.Time) {
	if e != nil {
		e.coreNS += int64(time.Since(t))
		e.coreN++
	}
}

func (e *evalTimer) markov(t time.Time) {
	if e != nil {
		e.markovNS += int64(time.Since(t))
		e.markovN++
	}
}

// metricsDelta reads the server's /v1/metrics counters.
func (b *serveBench) counters() (map[string]uint64, error) {
	var snap obs.Snapshot
	if err := b.get("/v1/metrics", &snap); err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// floor measures client-observed latency of the no-op route.
func (b *serveBench) floor() ([]float64, error) {
	lat := make([][]float64, serveConns)
	errs := make([]error, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c; i < floorRequests; i += serveConns {
				t := time.Now()
				resp, err := b.post("/noop", b.hot[i%hotPoints], 0, &buf)
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("no-op request: %s", resp.Status)
				}
				if err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], time.Since(t).Seconds())
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all, errors.Join(errs...)
}

// phaseRecord is the callers' records of one phase merged.
type phaseRecord struct {
	lat, queue, service *hist
	// rates are the completed requests per second of each whole window.
	rates []float64
}

// merge gathers the callers' records and adds their failures to out.
func merge(out *outcome, callers []*caller, wall float64) phaseRecord {
	r := phaseRecord{lat: newHist(), queue: newHist(), service: newHist()}
	whole := int(wall / window.Seconds())
	counts := make([]int, whole)
	for _, c := range callers {
		r.lat.merge(c.lat)
		r.queue.merge(c.queue)
		r.service.merge(c.service)
		for w := range counts {
			counts[w] += c.done[w]
		}
		out.attempted += c.attempted
		out.failed += c.failed
		out.notes = append(out.notes, describeErrs(c.errs)...)
	}
	for _, n := range counts {
		r.rates = append(r.rates, float64(n)/window.Seconds())
	}
	if whole == 0 {
		// A phase shorter than one window is one window.
		r.rates = []float64{float64(r.lat.n) / wall}
	}
	return r
}

// checkKept verifies every unique predict against the closed forms and
// every simulate job against serve.Run of its request.
func (b *serveBench) checkKept(out *outcome, callers []*caller, ev *evalTimer) error {
	var errs []error
	fail := func(err error) {
		out.failed++
		if len(errs) < 3 {
			errs = append(errs, err)
		}
	}
	for _, c := range callers {
		for _, k := range c.unique {
			req := point(b.seed, streamTimed, k.i, unit(b.seed, streamTimed, k.i, 7) < 0.2)
			if err := checkPredict(req, k.sum, ev); err != nil {
				fail(fmt.Errorf("predict %d: %w", k.i, err))
			}
		}
		for _, k := range c.jobs {
			job, err := b.awaitJob(k.id)
			if err != nil {
				return err
			}
			want, err := serve.Run(simRequest(b.seed, k.i))
			switch {
			case err != nil:
				fail(fmt.Errorf("simulate %d: serve.Run: %w", k.i, err))
			case job.Status != serve.JobDone || job.Result == nil:
				fail(fmt.Errorf("simulate %d: job %s ended %s %s", k.i, k.id, job.Status, job.Error))
			case !reflect.DeepEqual(*job.Result, want):
				fail(fmt.Errorf("simulate %d: job result differs from serve.Run", k.i))
			}
		}
	}
	out.notes = append(out.notes, describeErrs(errs)...)
	return nil
}

// awaitJob polls a job until it finishes.
func (b *serveBench) awaitJob(id string) (serve.Job, error) {
	deadline := time.Now().Add(jobWait)
	for time.Now().Before(deadline) {
		var job serve.Job
		if err := b.get("/v1/jobs/"+id, &job); err != nil {
			return job, err
		}
		if job.Status == serve.JobDone || job.Status == serve.JobFailed {
			return job, nil
		}
		time.Sleep(time.Millisecond)
	}
	return serve.Job{}, fmt.Errorf("job %s did not finish within %v", id, jobWait)
}

func runServe(cfg runConfig, mixed bool) (out *outcome, err error) {
	b, err := bootServe(cfg.seed, mixed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	if err := b.warm(); err != nil {
		return nil, err
	}
	if cfg.setupOnly {
		ready()
		return &outcome{}, nil
	}

	out = &outcome{}
	var next atomic.Uint64
	callers, wall := b.phase(cfg.half(), &next, nil)
	rec := merge(out, callers, wall)
	out.p50, out.p90, out.rates = rec.lat.quantile(0.5), rec.lat.quantile(0.9), rec.rates
	out.notes = append(out.notes, fmt.Sprintf("serve: %d requests, untraced rate per second %v", rec.lat.n, rec.rates))
	if out.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}

	var ev *evalTimer
	if cfg.traced {
		ev = &evalTimer{}
		before, err := b.counters()
		if err != nil {
			return nil, err
		}
		mem := startMem()
		tcallers, twall := b.phase(cfg.half(), &next, cfg.spans)
		trec := merge(out, tcallers, twall)
		allocMB, gcs := mem.perOp(trec.lat.n)
		after, err := b.counters()
		if err != nil {
			return nil, err
		}
		floor, err := b.floor()
		if err != nil {
			return nil, err
		}
		callers = append(callers, tcallers...)
		out.tracedRates = trec.rates
		spans := cfg.spans.snapshot()
		handler, overhead := handlerTimes(spans)
		d := func(name string) float64 { return float64(after[name] - before[name]) }
		lookups := d("serve.cache.hits") + d("serve.cache.misses")
		hitRatio := 0.0
		if lookups > 0 {
			hitRatio = d("serve.cache.hits") / lookups
		}
		out.layer = map[string]float64{
			"go.alloc_mb":           allocMB,
			"go.gc_cycles":          gcs,
			"serve.handler_us":      1e6 * quantile(handler, 0.5),
			"serve.handler_p90_us":  1e6 * quantile(handler, 0.9),
			"nethttp.floor_us":      1e6 * quantile(floor, 0.5),
			"client.overhead_us":    1e6 * quantile(overhead, 0.5),
			"serve.queue_us":        1e6 * orZero(trec.queue.quantile(0.5)),
			"serve.queue_p90_us":    1e6 * orZero(trec.queue.quantile(0.9)),
			"serve.service_us":      1e6 * orZero(trec.service.quantile(0.5)),
			"serve.service_p90_us":  1e6 * orZero(trec.service.quantile(0.9)),
			"serve.cache_hit_ratio": hitRatio,
			"serve.cache_lookups":   lookups,
			"serve.evals":           d("serve.predict.evals"),
			"serve.coalesced":       d("serve.predict.coalesced"),
			"serve.batch_jobs":      d("serve.batch.jobs"),
			"serve.jobs_completed":  d("serve.jobs.completed"),
			"serve.rejected":        d("serve.http.rejected"),
		}
		addOverhead(out)
		out.notes = append(out.notes, fmt.Sprintf("serve: traced p50 %.1f us = handler %.1f us + client/net %.1f us; no-op floor %.1f us",
			1e6*trec.lat.quantile(0.5), out.layer["serve.handler_us"], out.layer["client.overhead_us"], out.layer["nethttp.floor_us"]))
	}

	if err := b.checkKept(out, callers, ev); err != nil {
		return nil, err
	}
	if ev != nil {
		n := float64(out.attempted)
		out.layer["core.eval_s"] = float64(ev.coreNS) / 1e9 / n
		out.layer["core.evals"] = float64(ev.coreN) / n
		out.layer["markov.solve_s"] = float64(ev.markovNS) / 1e9 / n
		out.layer["markov.solves"] = float64(ev.markovN) / n
	}
	return out, nil
}

// handlerTimes pairs each client span with the handler span it caused
// and returns the handler durations and the client time around them.
func handlerTimes(spans []span) (handler, overhead []float64) {
	client := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "client.request" {
			client[s.ID] = s.dur()
		}
	}
	for _, s := range spans {
		if s.Name != "serve.handler" {
			continue
		}
		handler = append(handler, float64(s.dur())/1e9)
		if c, ok := client[s.Parent]; ok {
			overhead = append(overhead, float64(c-s.dur())/1e9)
		}
	}
	return handler, overhead
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}
