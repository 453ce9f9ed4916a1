// Package obs is the observability layer of the reproduction: a
// stdlib-only metrics registry (counters, gauges, fixed-bucket
// histograms), campaign progress reporting with ETA, run manifests, a
// structured JSONL metric export, and an optional expvar/pprof debug
// server for profiling long campaigns.
//
// A metric with a struct or trace counterpart is derived, never counted
// twice: the simulator's engine, links and sender keep their own
// counters, and reno.Connection.RecordMetrics reads a run's metrics from
// them when it ends, so the packet path makes no metric calls. Every
// metric type is used through a pointer handle, and a nil handle is a
// valid no-op: constructors on a nil *Registry return nil, so the few
// live handles (the sender's cwnd histogram and timer-cancel counter)
// are updated unconditionally and the disabled path costs one nil check
// per update — zero allocations, no branches on a separate "enabled"
// flag.
//
// All metric types are safe for concurrent use (atomics for updates, a
// mutex for registration), so a future sharded campaign runner can share
// one registry across goroutines.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. A nil *Counter is a
// valid handle whose methods do nothing.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil handle.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value that also tracks its high-water
// mark. A nil *Gauge is a valid no-op handle. The high-water mark starts
// at zero, which is the natural floor for the non-negative quantities
// (queue depths, window sizes) the simulator measures.
type Gauge struct {
	bits atomic.Uint64
	max  atomic.Uint64
}

// Set records the current value and raises the high-water mark if v
// exceeds it.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
	for {
		old := g.max.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.max.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the last value passed to Set (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Max returns the high-water mark observed so far.
func (g *Gauge) Max() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.max.Load())
}

// Histogram is a fixed-bucket histogram: Bounds[i] is the inclusive upper
// bound of bucket i, and one implicit overflow bucket catches everything
// above the last bound. Observe is allocation-free. A nil *Histogram is a
// valid no-op handle.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be sorted ascending")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v; NaN lands in the overflow bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of samples (0 on a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns Sum/Count, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the bucket holding the target rank — the same
// estimate a Prometheus histogram_quantile gives. It returns 0 with no
// samples or on a nil handle, and the last finite bound when the rank
// falls in the overflow bucket (an unbounded bucket cannot be
// interpolated).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return quantileFromBuckets(h.bounds, counts, q)
}

// quantileFromBuckets interpolates the q-quantile from bucket counts;
// counts has one entry per bound plus a final overflow bucket. Shared
// by Histogram.Quantile and Snapshot so live queries and exports agree.
func quantileFromBuckets(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: no finite upper edge to interpolate
			// toward; report the largest bound we can still vouch for.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if lo > hi { // negative-bound histograms: bucket 0 starts unbounded
			lo = hi
		}
		return lo + (hi-lo)*((rank-prev)/float64(c))
	}
	return bounds[len(bounds)-1]
}

// Registry holds named metrics. The zero value is not usable; call New.
// A nil *Registry is the disabled registry: its constructors return nil
// no-op handles and its Snapshot is empty, so "metrics off" needs no
// special-casing anywhere downstream.
type Registry struct {
	mu sync.Mutex
	//pftk:guardedby mu
	counters map[string]*Counter
	//pftk:guardedby mu
	gauges map[string]*Gauge
	//pftk:guardedby mu
	hists map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (the no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use; later calls reuse the existing buckets
// (the first registration wins). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// GaugeValue is the exported state of one gauge.
type GaugeValue struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramValue is the exported state of one histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramValue struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// P50, P90 and P99 are bucket-interpolated quantile estimates (see
	// Histogram.Quantile), precomputed at snapshot time so /v1/metrics
	// consumers and the JSONL export get latency percentiles without
	// re-deriving them from the buckets.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of a registry's metrics, suitable for
// JSON export. The maps are freshly allocated and safe to retain.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue     `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// Counter returns the snapshotted value of a counter (0 when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Snapshot captures the current state of every registered metric. On a
// nil registry it returns the empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeValue, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramValue, len(r.hists))
		for name, h := range r.hists {
			hv := HistogramValue{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]uint64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hv.Counts[i] = h.counts[i].Load()
			}
			hv.P50 = quantileFromBuckets(hv.Bounds, hv.Counts, 0.50)
			hv.P90 = quantileFromBuckets(hv.Bounds, hv.Counts, 0.90)
			hv.P99 = quantileFromBuckets(hv.Bounds, hv.Counts, 0.99)
			s.Histograms[name] = hv
		}
	}
	return s
}
