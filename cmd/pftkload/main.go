// Command pftkload is a load generator for pftkd with two arrival
// disciplines:
//
// Closed loop (default): -c worker goroutines issue requests
// back-to-back — each waits for its response before sending the next —
// optionally paced to a shared schedule of 1/-qps slots. Throughput
// found this way is the server's capacity, but latency under saturation
// is self-limiting: a slow server slows the request stream down, so the
// reported quantiles describe only the requests that were actually sent
// (coordinated omission).
//
// Open loop (-openloop, requires -qps): arrivals form a Poisson process
// of rate -qps, split across -c workers as independent streams of rate
// qps/c (their superposition is Poisson at the full rate). Each request
// has a scheduled arrival time drawn in advance, and latency is measured
// from that *scheduled* time — not from when the worker got around to
// sending it — so a stalled server inflates the tail of every backlogged
// request instead of silently thinning the stream. This is the
// coordinated-omission-safe discipline; use -c high enough that workers
// are not the bottleneck, or the backlog shows up as (honestly reported)
// latency.
//
// Examples:
//
//	pftkload -url http://127.0.0.1:8080 -c 64 -duration 10s
//	pftkload -url http://127.0.0.1:8080 -mode simulate -c 4 -n 100
//	pftkload -url http://127.0.0.1:8080 -c 32 -qps 5000 -batch 16
//	pftkload -url http://127.0.0.1:8080 -c 64 -openloop -qps 8000 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pftk/internal/cli"
	"pftk/internal/obs"
	"pftk/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

// workerStats accumulates one worker's private view of the run; workers
// never share mutable state on the hot path.
type workerStats struct {
	latencies []float64 // seconds, successful round trips only
	queues    []float64 // server-reported queue-wait seconds (X-Queue-Seconds)
	services  []float64 // server-reported service seconds (X-Service-Seconds)
	n2xx      int
	n429      int
	n4xx      int // other 4xx
	n5xx      int
	errors    int // transport failures
}

// quantileSet is the latency summary shape of the -json report.
type quantileSet struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// quantileSetOf summarizes samples; ok is false with no samples.
func quantileSetOf(vs []float64) (quantileSet, bool) {
	if len(vs) == 0 {
		return quantileSet{}, false
	}
	return quantileSet{
		P50: stats.Quantile(vs, 0.50),
		P90: stats.Quantile(vs, 0.90),
		P95: stats.Quantile(vs, 0.95),
		P99: stats.Quantile(vs, 0.99),
		Max: stats.Quantile(vs, 1.0),
	}, true
}

// report is the machine-readable run summary emitted by -json.
type report struct {
	Target          string       `json:"target"`
	Mode            string       `json:"mode"`
	Concurrency     int          `json:"concurrency"`
	Requests        int          `json:"requests"`
	Seconds         float64      `json:"seconds"`
	ReqPerSec       float64      `json:"req_per_sec"`
	Status2xx       int          `json:"status_2xx"`
	Status429       int          `json:"status_429"`
	Status4xx       int          `json:"status_4xx"`
	Status5xx       int          `json:"status_5xx"`
	TransportErrors int          `json:"transport_errors"`
	LatencySeconds  *quantileSet `json:"latency_seconds,omitempty"`
	// QueueSeconds and ServiceSeconds split the round trip using the
	// X-Queue-Seconds / X-Service-Seconds headers pftkd echoes; absent
	// when the server does not report them.
	QueueSeconds   *quantileSet `json:"queue_seconds,omitempty"`
	ServiceSeconds *quantileSet `json:"service_seconds,omitempty"`
	// OpenLoop marks a Poisson-arrival run; latencies are then measured
	// from each request's scheduled arrival time (coordinated-omission
	// safe) and OfferedQPS is the arrival rate the run offered.
	OpenLoop   bool    `json:"open_loop,omitempty"`
	OfferedQPS float64 `json:"offered_qps,omitempty"`
}

// run executes the load test described by args.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pftkload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		url      = fs.String("url", "http://127.0.0.1:8080", "base URL of the pftkd service")
		mode     = fs.String("mode", "predict", "request mix: predict or simulate")
		conc     = fs.Int("c", 64, "concurrent workers")
		duration = fs.Duration("duration", 10*time.Second, "run length (ignored when -n is set)")
		total    = fs.Int("n", 0, "stop after this many requests (0 = run for -duration)")
		qps      = fs.Float64("qps", 0, "target aggregate request rate (0 = unpaced closed loop)")
		openLoop = fs.Bool("openloop", false, "Poisson arrivals at -qps with latency from scheduled send time (coordinated-omission safe)")
		seed     = fs.Int64("seed", 1, "base seed of the open-loop arrival streams")
		batch    = fs.Int("batch", 1, "points per predict request (1 = single-point body)")
		simDur   = fs.Float64("simdur", 5, "simulated seconds per simulate job")
		seeds    = fs.Int("seeds", 0, "distinct simulate seeds before reuse turns runs into cache hits (0 = all distinct)")
		jsonOut  = fs.Bool("json", false, "write the machine-readable report to stdout instead of the human summary")
		version  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := cli.NewWriter(stdout)
	if *version {
		w.Printf("pftkload %s\n", obs.BuildVersion())
		return w.Err()
	}
	if *conc < 1 {
		return fmt.Errorf("-c must be positive, got %d", *conc)
	}
	if *total == 0 && *duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", *duration)
	}
	if *total < 0 {
		return fmt.Errorf("-n must be non-negative, got %d", *total)
	}
	if *qps < 0 {
		return fmt.Errorf("-qps must be non-negative, got %v", *qps)
	}
	if *openLoop && *qps <= 0 {
		return fmt.Errorf("-openloop needs an arrival rate: set -qps")
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be positive, got %d", *batch)
	}
	if *simDur <= 0 {
		return fmt.Errorf("-simdur must be positive, got %v", *simDur)
	}
	if *seeds < 0 {
		return fmt.Errorf("-seeds must be non-negative, got %d", *seeds)
	}
	var path string
	switch *mode {
	case "predict":
		path = "/v1/predict"
	case "simulate":
		path = "/v1/simulate"
	default:
		return fmt.Errorf("unknown -mode %q (valid: predict, simulate)", *mode)
	}
	target := strings.TrimSuffix(*url, "/") + path

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *conc * 2,
			MaxIdleConnsPerHost: *conc * 2,
		},
		Timeout: 30 * time.Second,
	}

	var (
		issued  atomic.Int64 // request sequence numbers
		results = make([]workerStats, *conc)
		wg      sync.WaitGroup
	)
	bodies := newBodyCache(*mode, *batch, *simDur, *seeds)
	start := time.Now()
	deadline := start.Add(*duration)
	interval := time.Duration(0)
	if *qps > 0 {
		interval = time.Duration(float64(time.Second) / *qps)
	}
	for g := 0; g < *conc; g++ {
		wg.Add(1)
		go func(g int, ws *workerStats) {
			defer wg.Done()
			lw := &loadWorker{
				client: client, target: target, mode: *mode,
				batch: *batch, simDur: *simDur, seeds: *seeds,
				bodies: bodies, issued: &issued, total: int64(*total),
				deadline: deadline, ws: ws,
			}
			if *openLoop {
				lw.runOpen(start, *qps/float64(*conc), *seed+int64(g))
			} else {
				lw.runClosed(start, interval)
			}
		}(g, &results[g])
	}
	wg.Wait()
	elapsed := time.Since(start)

	var agg workerStats
	for _, ws := range results {
		agg.latencies = append(agg.latencies, ws.latencies...)
		agg.queues = append(agg.queues, ws.queues...)
		agg.services = append(agg.services, ws.services...)
		agg.n2xx += ws.n2xx
		agg.n429 += ws.n429
		agg.n4xx += ws.n4xx
		agg.n5xx += ws.n5xx
		agg.errors += ws.errors
	}
	n := len(agg.latencies) + agg.errors

	rep := report{
		Target:          target,
		Mode:            *mode,
		Concurrency:     *conc,
		Requests:        n,
		Seconds:         elapsed.Seconds(),
		ReqPerSec:       float64(n) / elapsed.Seconds(),
		Status2xx:       agg.n2xx,
		Status429:       agg.n429,
		Status4xx:       agg.n4xx,
		Status5xx:       agg.n5xx,
		TransportErrors: agg.errors,
	}
	if *openLoop {
		rep.OpenLoop = true
		rep.OfferedQPS = *qps
	}
	if q, ok := quantileSetOf(agg.latencies); ok {
		rep.LatencySeconds = &q
	}
	if q, ok := quantileSetOf(agg.queues); ok {
		rep.QueueSeconds = &q
	}
	if q, ok := quantileSetOf(agg.services); ok {
		rep.ServiceSeconds = &q
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		w.Printf("pftkload: %d requests in %.2fs (%.1f req/s) against %s\n",
			n, rep.Seconds, rep.ReqPerSec, target)
		if rep.OpenLoop {
			w.Printf("  open loop: Poisson arrivals offered at %.1f req/s; latency from scheduled send time\n", rep.OfferedQPS)
		}
		w.Printf("  status: 2xx=%d 429=%d other-4xx=%d 5xx=%d transport-errors=%d\n",
			agg.n2xx, agg.n429, agg.n4xx, agg.n5xx, agg.errors)
		if q := rep.LatencySeconds; q != nil {
			w.Printf("  latency: p50=%s p90=%s p95=%s p99=%s max=%s\n",
				ms(q.P50), ms(q.P90), ms(q.P95), ms(q.P99), ms(q.Max))
		}
		if q := rep.QueueSeconds; q != nil {
			w.Printf("  queue-wait: p50=%s p99=%s max=%s\n", ms(q.P50), ms(q.P99), ms(q.Max))
		}
		if q := rep.ServiceSeconds; q != nil {
			w.Printf("  service: p50=%s p99=%s max=%s\n", ms(q.P50), ms(q.P99), ms(q.Max))
		}
		if err := w.Err(); err != nil {
			return err
		}
	}
	if agg.n2xx == 0 {
		return fmt.Errorf("no successful responses out of %d requests", n)
	}
	return nil
}

// loadWorker is one generator goroutine's state: everything it needs to
// claim sequence numbers, build bodies and record outcomes without
// touching shared mutable state beyond the issue counter.
type loadWorker struct {
	client   *http.Client
	target   string
	mode     string
	batch    int
	simDur   float64
	seeds    int
	bodies   [][]byte // precomputed cycle; nil = build per request
	issued   *atomic.Int64
	total    int64
	deadline time.Time
	ws       *workerStats
}

// next claims the next request sequence number; false ends the worker
// (request budget or deadline exhausted).
func (lw *loadWorker) next() (int64, bool) {
	i := lw.issued.Add(1) - 1
	if lw.total > 0 && i >= lw.total {
		return 0, false
	}
	if lw.total == 0 && time.Now().After(lw.deadline) {
		return 0, false
	}
	return i, true
}

// body returns request i's body, from the precomputed cycle when one
// exists.
func (lw *loadWorker) body(i int64) []byte {
	if lw.bodies != nil {
		return lw.bodies[i%int64(len(lw.bodies))]
	}
	return requestBody(lw.mode, i, lw.batch, lw.simDur, lw.seeds)
}

// runClosed is the closed loop: issue, wait for the response, repeat —
// optionally paced so request i is not sent before its slot i/qps opens.
// Sequence numbers make the schedule exact without a shared ticker.
func (lw *loadWorker) runClosed(start time.Time, interval time.Duration) {
	for {
		i, ok := lw.next()
		if !ok {
			return
		}
		if interval > 0 {
			if wait := time.Until(start.Add(time.Duration(i) * interval)); wait > 0 {
				time.Sleep(wait)
			}
		}
		lw.issue(i, time.Now())
	}
}

// runOpen fires this worker's independent Poisson arrival stream at the
// given rate (streams superpose to the aggregate -qps). Latency is
// measured from each request's scheduled arrival: when the server (or a
// saturated worker) falls behind, the wait shows up in every backlogged
// request's latency instead of being coordinated away.
func (lw *loadWorker) runOpen(start time.Time, rate float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		i, ok := lw.next()
		if !ok {
			return
		}
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		lw.issue(i, next)
	}
}

// issue sends request i and records its outcome; latency is measured
// from t0 (the send time in closed loop, the scheduled arrival in open
// loop).
func (lw *loadWorker) issue(i int64, t0 time.Time) {
	req, err := http.NewRequest(http.MethodPost, lw.target, bytes.NewReader(lw.body(i)))
	if err != nil {
		lw.ws.errors++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// One ID per request, propagated end to end: pftkd echoes it in
	// X-Request-Id, tags the request's spans with it, and stamps it on
	// async job results.
	req.Header.Set("X-Request-Id", fmt.Sprintf("load-%08d", i))
	resp, err := lw.client.Do(req)
	if err != nil {
		lw.ws.errors++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	lw.ws.latencies = append(lw.ws.latencies, time.Since(t0).Seconds())
	if q, ok := headerSeconds(resp, "X-Queue-Seconds"); ok {
		lw.ws.queues = append(lw.ws.queues, q)
	}
	if sv, ok := headerSeconds(resp, "X-Service-Seconds"); ok {
		lw.ws.services = append(lw.ws.services, sv)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		lw.ws.n429++
	case resp.StatusCode >= 500:
		lw.ws.n5xx++
	case resp.StatusCode >= 400:
		lw.ws.n4xx++
	default:
		lw.ws.n2xx++
	}
}

// headerSeconds parses a float-seconds response header.
func headerSeconds(resp *http.Response, name string) (float64, bool) {
	v := resp.Header.Get(name)
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// ms renders a latency in seconds as a human-readable duration.
func ms(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// newBodyCache precomputes predict-mode bodies. They depend on the
// sequence number only through the 64-point loss grid — point index
// (i*batch+j) mod 64 equals ((i mod 64)*batch+j) mod 64 — so 64 bodies
// cover every request and the hot path stops re-marshaling JSON per
// request. Simulate bodies embed the per-request seed and stay dynamic.
func newBodyCache(mode string, batch int, simDur float64, seeds int) [][]byte {
	if mode != "predict" {
		return nil
	}
	bodies := make([][]byte, 64)
	for j := range bodies {
		bodies[j] = requestBody(mode, int64(j), batch, simDur, seeds)
	}
	return bodies
}

// requestBody builds the i-th request. Parameters sweep a deterministic
// log-spaced loss-rate grid (the shape of the paper's Fig. 7-13 model
// queries), so a run exercises many distinct cache keys without any
// nondeterminism.
func requestBody(mode string, i int64, batch int, simDur float64, seeds int) []byte {
	lossAt := func(k int64) float64 {
		// 64 log-spaced points in [1e-4, 0.5], repeating.
		frac := float64(k%64) / 63
		return 1e-4 * math.Pow(0.5/1e-4, frac)
	}
	var v any
	switch mode {
	case "simulate":
		seed := uint64(i)
		if seeds > 0 {
			seed = uint64(i) % uint64(seeds)
		}
		v = map[string]any{
			"rtt":       0.1,
			"loss_rate": lossAt(i % 8),
			"duration":  simDur,
			"seed":      seed,
		}
	default:
		if batch > 1 {
			reqs := make([]map[string]any, batch)
			for j := range reqs {
				reqs[j] = predictPoint(lossAt(i*int64(batch) + int64(j)))
			}
			v = map[string]any{"requests": reqs}
		} else {
			v = predictPoint(lossAt(i))
		}
	}
	body, err := json.Marshal(v)
	if err != nil {
		// Bodies are maps of numbers; this cannot fail.
		panic(err)
	}
	return body
}

// predictPoint is one predict body on the paper's canonical wide-area
// parameters.
func predictPoint(p float64) map[string]any {
	return map[string]any{"p": p, "rtt": 0.2, "t0": 2.0, "wm": 12}
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "pftkload:", err)
	os.Exit(1)
}
