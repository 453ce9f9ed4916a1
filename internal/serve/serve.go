// Package serve implements pftkd, the throughput-prediction and
// simulation service: a stdlib-only HTTP JSON API over the PFTK model
// family and the packet-level validation simulator.
//
//	POST /v1/predict   model predictions for one point or a batch
//	POST /v1/simulate  submit a deterministic simulation as an async job
//	GET  /v1/jobs/{id} poll a submitted job
//	GET  /v1/metrics   current metrics snapshot
//	GET  /healthz      liveness and queue state
//
// Predictions are evaluated synchronously on the handler goroutine: a
// miss passes a non-blocking admission check, is evaluated, encoded and
// cached, and the handler writes the response. Simulations are
// asynchronous jobs on a fixed worker pool with a bounded queue
// (internal/workpool), polled via /v1/jobs. Under overload the service
// sheds with 429 + Retry-After instead of queueing unboundedly — it never
// drops connections. Finished work lands in hash-sharded LRU caches keyed
// by a canonical request hash: requests are normalized (defaults filled,
// model lists sorted) before hashing, and simulations are seeded and
// deterministic, so a cache hit is exact and a resubmitted simulation
// returns the identical result without re-running. Identical in-flight
// simulations are coalesced onto one run.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pftk/internal/obs"
	"pftk/internal/tracez"
	"pftk/internal/workpool"
)

// Config sizes the service. Zero values mean defaults.
type Config struct {
	// Workers is the size of the worker pool; default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the job queue; default 256. A full queue turns
	// into 429 responses. Workers + QueueDepth also caps the predict
	// requests evaluating at once.
	QueueDepth int
	// CacheEntries bounds each result LRU (predictions and simulations
	// are cached separately); default 4096.
	CacheEntries int
	// CacheShards is the shard count of each result LRU, rounded up to a
	// power of two; default a few shards per core.
	CacheShards int
	// MaxBatch bounds the number of points in one predict batch;
	// default 1024.
	MaxBatch int
	// MaxJobs bounds retained finished jobs; default 4096.
	MaxJobs int
	// RetryAfter is the hint returned with 429 responses; default 1 s.
	RetryAfter time.Duration
	// Registry receives service metrics; nil disables them at zero
	// cost (the obs nil-handle convention).
	Registry *obs.Registry
	// Tracer records request-scoped spans (root per request, children
	// for cache, admission, queue-wait, eval, encode); nil disables
	// tracing at zero cost (the tracez nil-handle convention). The same
	// tracer is installed on the worker pool for per-job wait/service
	// spans.
	Tracer *tracez.Tracer
	// AccessLog receives one structured line per request; nil disables
	// access logging. Writes are serialized by the server.
	AccessLog io.Writer
	// FlightEvents sizes the per-simulation flight recorder ring (0
	// selects the default capacity, negative disables recording). On a
	// simulation panic the recorder dump is written to AccessLog and
	// the job fails instead of crashing a worker.
	FlightEvents int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 4096
	}
	if c.CacheShards < 1 {
		c.CacheShards = defaultCacheShards()
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 1024
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4096
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// latencyBuckets spans 100 µs to 10 s, the range from an in-memory
// prediction to a long queued simulation.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Server is the pftkd HTTP service. Create one with New; it implements
// http.Handler.
type Server struct {
	cfg       Config
	pool      *workpool.Pool
	predCache *shardedLRU[[]byte] // encoded single-point bodies
	simCache  *shardedLRU[SimulateResult]
	simflight *simFlights
	jobs      *jobStore
	mux       *http.ServeMux
	log       *logSink
	closed    atomic.Bool
	// evaluating counts predict requests admitted and not yet done.
	evaluating atomic.Int64

	// reqSeq numbers requests that arrive without an X-Request-Id.
	reqSeq atomic.Uint64

	// Metric handles; all nil (free no-ops) without a registry.
	mRequests      *obs.Counter
	m2xx, m4xx     *obs.Counter
	m5xx           *obs.Counter
	mRejected      *obs.Counter
	mLatency       *obs.Histogram
	mQueueDepth    *obs.Gauge
	mCacheHits     *obs.Counter
	mCacheMisses   *obs.Counter
	mPredictPts    *obs.Counter
	mEvals         *obs.Counter
	mJobsSub       *obs.Counter
	mJobsDone      *obs.Counter
	mJobsFailed    *obs.Counter
	mJobsCoalesced *obs.Counter
}

// New returns a ready-to-serve Server. Callers must Close it to drain
// in-flight jobs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:       cfg,
		pool:      workpool.New(cfg.Workers, cfg.QueueDepth),
		predCache: newShardedLRU[[]byte](cfg.CacheEntries, cfg.CacheShards),
		simCache:  newShardedLRU[SimulateResult](cfg.CacheEntries, cfg.CacheShards),
		simflight: newSimFlights(),
		jobs:      newJobStore(cfg.MaxJobs),
		mux:       http.NewServeMux(),
		log:       newLogSink(cfg.AccessLog),

		mRequests:      reg.Counter("serve.http.requests"),
		m2xx:           reg.Counter("serve.http.responses.2xx"),
		m4xx:           reg.Counter("serve.http.responses.4xx"),
		m5xx:           reg.Counter("serve.http.responses.5xx"),
		mRejected:      reg.Counter("serve.http.rejected"),
		mLatency:       reg.Histogram("serve.http.latency.seconds", latencyBuckets),
		mQueueDepth:    reg.Gauge("serve.queue.depth"),
		mCacheHits:     reg.Counter("serve.cache.hits"),
		mCacheMisses:   reg.Counter("serve.cache.misses"),
		mPredictPts:    reg.Counter("serve.predict.points"),
		mEvals:         reg.Counter("serve.predict.evals"),
		mJobsSub:       reg.Counter("serve.jobs.submitted"),
		mJobsDone:      reg.Counter("serve.jobs.completed"),
		mJobsFailed:    reg.Counter("serve.jobs.failed"),
		mJobsCoalesced: reg.Counter("serve.jobs.coalesced"),
	}
	s.pool.SetTracer(cfg.Tracer)
	if cfg.Tracer != nil {
		// The span view rides on the service address, so one port serves
		// both traffic and its traces.
		s.mux.Handle("GET /debug/tracez", cfg.Tracer.Handler())
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// Close stops admitting work and blocks until every accepted job has
// finished — the drain half of graceful shutdown. Predictions run on
// their handlers, so the HTTP listener (if any) is the caller's to stop
// first.
func (s *Server) Close() {
	s.closed.Store(true)
	s.pool.Close()
}

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// maxRequestIDLen bounds a caller-supplied X-Request-Id; longer values
// are replaced with a server-assigned ID so logs and spans stay
// bounded.
const maxRequestIDLen = 128

// requestID returns the caller's X-Request-Id when usable, or assigns
// the next server-generated ID.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= maxRequestIDLen {
		return id
	}
	return fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
}

// routeName maps a request to its bounded span name: the method plus
// the route pattern, with path parameters collapsed so span names stay
// low-cardinality.
func routeName(r *http.Request) string {
	path := r.URL.Path
	if strings.HasPrefix(path, "/v1/jobs/") {
		path = "/v1/jobs/{id}"
	}
	return r.Method + " " + path
}

// ServeHTTP implements http.Handler with request accounting around the
// route table: it assigns (or propagates) the X-Request-Id, opens the
// request's root span, and emits one access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mRequests.Inc()
	s.mQueueDepth.Set(float64(s.pool.QueueDepth()))

	reqID := s.requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	root := s.cfg.Tracer.StartRoot(routeName(r))
	root.SetAttr("request_id", reqID)
	r = r.WithContext(tracez.NewContext(r.Context(), &root))
	r.Header.Set("X-Request-Id", reqID)

	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)

	elapsed := time.Since(start).Seconds()
	s.mLatency.Observe(elapsed)
	switch {
	case sw.code >= 500:
		s.m5xx.Inc()
	case sw.code >= 400:
		s.m4xx.Inc()
	default:
		s.m2xx.Inc()
	}
	root.SetAttr("status", strconv.Itoa(sw.code))
	if sw.code >= 400 {
		root.SetError(http.StatusText(sw.code))
	}
	root.End()
	s.accessLog(r, sw, reqID, elapsed, &root)
}

// accessLog writes the request's structured log line, if logging is
// configured. The queue/service split is read back from the response
// headers the handlers set, so the log agrees with what the client saw.
// The line is formatted here, lock-free, and handed to the sink.
func (s *Server) accessLog(r *http.Request, sw *statusWriter, reqID string, elapsed float64, root *tracez.Span) {
	if s.log == nil {
		return
	}
	var trace string
	if root.Enabled() {
		trace = fmt.Sprintf(" trace=%016x", root.Trace())
	}
	var split string
	if q := sw.Header().Get("X-Queue-Seconds"); q != "" {
		split = fmt.Sprintf(" queue_seconds=%s service_seconds=%s", q, sw.Header().Get("X-Service-Seconds"))
	}
	line := fmt.Appendf(nil, "request_id=%s method=%s path=%s status=%d duration_seconds=%.6f%s%s\n",
		reqID, r.Method, r.URL.Path, sw.code, elapsed, split, trace)
	s.log.append(line)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v with the given status. Encoding failures past the
// header cannot be reported to the client; they surface in the 5xx
// counter via a best-effort disconnect.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBytes sends an already-encoded JSON body (newline included).
func writeJSONBytes(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeError sends the JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// rejectOverload sends the 429 + Retry-After admission-control response.
func (s *Server) rejectOverload(w http.ResponseWriter) {
	s.mRejected.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeError(w, http.StatusTooManyRequests, "job queue full, retry later")
}

// setSecondsHeader writes a duration header in the fixed %.6f format the
// load generators parse, without going through fmt.
func setSecondsHeader(w http.ResponseWriter, name string, d time.Duration) {
	var arr [24]byte
	w.Header().Set(name, string(strconv.AppendFloat(arr[:0], d.Seconds(), 'f', 6, 64)))
}

// decodeStrict decodes exactly one JSON value from the body, rejecting
// unknown fields and trailing garbage.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// handleHealthz reports liveness and queue state.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.closed.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"workers":     s.cfg.Workers,
		"queue_depth": s.pool.QueueDepth(),
		"cache_size":  s.predCache.len() + s.simCache.len(),
	})
}

// handleMetrics serves the registry snapshot (empty without a registry).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Registry.Snapshot())
}

// predictPayload accepts both request shapes of /v1/predict: a single
// point (top-level fields) or a batch ("requests" array).
type predictPayload struct {
	PredictRequest
	Requests []PredictRequest `json:"requests,omitempty"`
}

// BatchResponse carries per-point results of a predict batch, in request
// order.
type BatchResponse struct {
	Results []PredictResponse `json:"results"`
}

// batchBody splices single-point bodies into the batch envelope. Each
// element encodes alone exactly as it does inside BatchResponse, so the
// result is byte-identical to json.Encoder's encoding of the batch.
func batchBody(bodies [][]byte) []byte {
	n := len(`{"results":[]}`) // each body's newline pays for a comma or the last "\n"
	for _, b := range bodies {
		n += len(b)
	}
	out := append(make([]byte, 0, n), `{"results":[`...)
	for i, b := range bodies {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, b[:len(b)-1]...) // drop the body's newline
	}
	return append(out, "]}\n"...)
}

// admit reserves an evaluation slot for one predict request's misses,
// whatever their number. It refuses once the server is closed, while the
// job queue is full, or when Workers + QueueDepth requests are already
// evaluating. The caller releases an admitted slot with
// s.evaluating.Add(-1).
func (s *Server) admit() bool {
	if s.closed.Load() || s.pool.QueueDepth() >= s.cfg.QueueDepth {
		return false
	}
	if s.evaluating.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.evaluating.Add(-1)
		return false
	}
	return true
}

// handlePredict evaluates the model family at one point or a batch of
// points. Hits are served from the cache. The misses of one request are
// admitted together and evaluated in order on the handler goroutine,
// each one encoded and cached as it completes.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	root := tracez.FromContext(r.Context())
	var payload predictPayload
	if err := decodeStrict(r, &payload); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	batch := payload.Requests != nil
	reqs := payload.Requests
	if !batch {
		reqs = []PredictRequest{payload.PredictRequest}
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(reqs) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(reqs), s.cfg.MaxBatch)
		return
	}
	s.mPredictPts.Add(uint64(len(reqs)))

	// Normalize and validate everything before doing any work, so a bad
	// point fails the request instead of half-computing it.
	keys := make([]cacheKey, len(reqs))
	for i := range reqs {
		reqs[i] = reqs[i].normalize()
		if err := reqs[i].validate(); err != nil {
			if batch {
				writeError(w, http.StatusBadRequest, "request %d: %v", i, err)
			} else {
				writeError(w, http.StatusBadRequest, "%v", err)
			}
			return
		}
		keys[i] = predictKey(reqs[i])
	}

	bodies := make([][]byte, len(reqs))
	var misses []int
	cacheSp := root.StartChild("cache")
	for i := range reqs {
		if body, ok := s.predCache.get(keys[i]); ok {
			s.mCacheHits.Inc()
			bodies[i] = body
			continue
		}
		s.mCacheMisses.Inc()
		misses = append(misses, i)
	}
	cacheSp.SetAttr("hits", strconv.Itoa(len(reqs)-len(misses)))
	cacheSp.SetAttr("misses", strconv.Itoa(len(misses)))
	cacheSp.End()

	// The queue/service split is measured on the wall clock and echoed in
	// response headers, so load generators can separate admission from
	// model evaluation without a tracer. Queue runs from admission to the
	// start of evaluation.
	var queueWait, service time.Duration
	if len(misses) > 0 {
		adm := root.StartChild("admission")
		if !s.admit() {
			adm.SetError("queue full")
			adm.End()
			s.rejectOverload(w)
			return
		}
		admitted := time.Now()
		adm.End()
		esp := root.StartChild("eval")
		start := time.Now()
		bad, err := s.evaluate(reqs, keys, misses, bodies)
		queueWait, service = start.Sub(admitted), time.Since(start)
		s.evaluating.Add(-1)
		if err != nil {
			esp.SetError(err.Error())
			esp.End()
			writeError(w, http.StatusBadRequest, "request %d: %v", bad, err)
			return
		}
		esp.End()
	}
	setSecondsHeader(w, "X-Queue-Seconds", queueWait)
	setSecondsHeader(w, "X-Service-Seconds", service)
	enc := root.StartChild("encode")
	defer enc.End()
	if batch {
		writeJSONBytes(w, http.StatusOK, batchBody(bodies))
		return
	}
	writeJSONBytes(w, http.StatusOK, bodies[0])
}

// evaluate computes, encodes and caches the body of each missed point in
// order. It stops at the first point with no finite answer and returns
// that point's index with the error.
func (s *Server) evaluate(reqs []PredictRequest, keys []cacheKey, misses []int, bodies [][]byte) (int, error) {
	for _, i := range misses {
		body, err := predictBody(reqs[i])
		s.mEvals.Inc()
		if err != nil {
			return i, err
		}
		s.predCache.put(keys[i], body)
		bodies[i] = body
	}
	return 0, nil
}

// handleSimulate admits one simulation job. Cache hits complete
// immediately (200, status done, cached true); misses are queued on the
// worker pool (202) and polled via /v1/jobs/{id}; a miss identical to an
// in-flight simulation is coalesced — it gets its own job ID but rides
// the running evaluation (202, no extra worker); a full queue is 429.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	root := tracez.FromContext(r.Context())
	reqID := r.Header.Get("X-Request-Id")
	var req SimulateRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req = req.normalize()
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := canonicalKey("simulate", req)
	cacheSp := root.StartChild("cache")
	if v, ok := s.simCache.get(key); ok {
		s.mCacheHits.Inc()
		cacheSp.SetAttr("hit", "true")
		cacheSp.End()
		seq := s.jobs.create(req, reqID)
		s.jobs.finish(seq, v, true)
		job, _ := s.jobs.snapshot(seq)
		writeJSON(w, http.StatusOK, job)
		return
	}
	s.mCacheMisses.Inc()
	cacheSp.SetAttr("hit", "false")
	cacheSp.End()
	seq := s.jobs.create(req, reqID)
	job, _ := s.jobs.snapshot(seq)
	if !s.simflight.join(key, seq) {
		// An identical simulation is already running; this job completes
		// from the leader's result without occupying a worker.
		s.mJobsCoalesced.Inc()
		s.mJobsSub.Inc()
		adm := root.StartChild("admission")
		adm.SetAttr("coalesced", "true")
		adm.End()
		writeJSON(w, http.StatusAccepted, job)
		return
	}
	submittedTrace := s.cfg.Tracer.NowSeconds()
	adm := root.StartChild("admission")
	// The job outlives the handler: its spans hang off the (by then
	// ended) root, which is valid — the child records still carry the
	// request's trace ID, so /debug/tracez ties the async work back to
	// the submission.
	traceRef := *root
	accepted := s.pool.TrySubmit(func() {
		s.jobs.setRunning(seq)
		qsp := traceRef.StartChildAt("queue-wait", submittedTrace)
		qsp.End()
		// A fresh leader can race an identical just-finished run (the
		// flight clears after the cache put); re-checking here turns that
		// into a free completion instead of a duplicate simulation.
		if v, ok := s.simCache.get(key); ok {
			s.jobs.finish(seq, v, true)
			s.mJobsDone.Inc()
			for _, id := range s.simflight.take(key) {
				s.jobs.finish(id, v, true)
				s.mJobsDone.Inc()
			}
			return
		}
		esp := traceRef.StartChild("eval")
		res, dump, err := runSimulationGuarded(req, s.cfg.FlightEvents)
		if err != nil {
			esp.SetError(err.Error())
			esp.End()
			s.jobs.fail(seq, err.Error())
			s.mJobsFailed.Inc()
			for _, id := range s.simflight.take(key) {
				s.jobs.fail(id, err.Error())
				s.mJobsFailed.Inc()
			}
			s.logSimFailure(job.ID, err, dump)
			return
		}
		esp.End()
		s.simCache.put(key, res)
		s.jobs.finish(seq, res, false)
		s.mJobsDone.Inc()
		for _, id := range s.simflight.take(key) {
			s.jobs.finish(id, res, true)
			s.mJobsDone.Inc()
		}
	})
	if !accepted {
		adm.SetError("queue full")
		adm.End()
		s.jobs.fail(seq, "rejected: queue full")
		s.mJobsFailed.Inc()
		for _, id := range s.simflight.take(key) {
			s.jobs.fail(id, "rejected: queue full")
			s.mJobsFailed.Inc()
		}
		s.rejectOverload(w)
		return
	}
	adm.End()
	s.mJobsSub.Inc()
	writeJSON(w, http.StatusAccepted, job)
}

// logSimFailure records a failed (typically panicked) simulation with
// its flight-recorder dump — the engine's black box for post-mortems.
func (s *Server) logSimFailure(jobID string, err error, dump string) {
	if s.log == nil {
		return
	}
	s.log.append(fmt.Appendf(nil, "job=%s simulation_failed error=%q\n%s", jobID, err, dump))
}

// handleJob serves one job's current state.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}
