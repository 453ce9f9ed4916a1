package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json order. A workload that does not drive a layer reports
// 0 for it.
var perLayer = []struct{ name, unit string }{
	{"hosts.calibrate_s", "s"},
	{"reno.busy_s", "s"},
	{"reno.packets", "count"},
	{"sim.events", "count"},
	{"analysis.infer_s", "s"},
	{"analysis.summarize_s", "s"},
	{"analysis.intervals_s", "s"},
	{"analysis.records", "count"},
	{"workpool.wait_s", "s"},
	{"workpool.tail_s", "s"},
	{"core.eval_s", "s"},
	{"core.evals", "count"},
	{"markov.solve_s", "s"},
	{"markov.solves", "count"},
	{"multiflow.build_s", "s"},
	{"sim.run_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.pool_slots", "count"},
	{"multiflow.finish_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"serve.handler_us", "us"},
	{"serve.handler_p90_us", "us"},
	{"nethttp.floor_us", "us"},
	{"client.overhead_us", "us"},
	{"serve.queue_us", "us"},
	{"serve.queue_p90_us", "us"},
	{"serve.service_us", "us"},
	{"serve.service_p90_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_lookups", "count"},
	{"serve.evals", "count"},
	{"serve.coalesced", "count"},
	{"serve.batch_jobs", "count"},
	{"serve.jobs_completed", "count"},
	{"serve.rejected", "count"},
	{"bench.untraced_ops_per_s", "1/s"},
	{"bench.traced_ops_per_s", "1/s"},
	{"bench.trace_overhead", "ratio"},
}

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer was created; Parent is 0 for an op's
// root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so the untraced phase pays one nil check per call.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span.
type open struct {
	id, parent, op int64
	name           string
	start          int64
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin starts a span; parent and op are the enclosing span and the op
// it belongs to (both 0 for a root that starts an op).
func (t *tracer) begin(name string, parent, op int64) open {
	if t == nil {
		return open{}
	}
	id := t.ids.Add(1)
	if op == 0 {
		op = id
	}
	return open{id: id, parent: parent, op: op, name: name, start: t.now()}
}

// end records the span.
func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	s := span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name, Start: o.start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// total sums the durations of the named spans, in seconds.
func total(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap (the
// jobs of a 2-worker pass), so the covered part is their union.
func selfTimes(spans []span) []int64 {
	kids := map[int64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			case iv[1] > curHi:
				curHi = iv[1]
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// printSummary prints, per span name, how many spans there were, their
// total and self time, and each name's share of all self time. Self
// times of one op sum to its wall time times the lanes that ran it (two
// workers in a paper pass), so the shares say where the op's time went.
func (t *tracer) printSummary(w io.Writer, path string) {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		name        string
		n           int
		total, self int64
	}
	rows := map[string]*row{}
	var all int64
	ops := map[int64]bool{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += self[i]
		all += self[i]
		ops[s.Op] = true
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(a, b int) bool { return list[a].self > list[b].self })
	_, _ = fmt.Fprintf(w, "trace: %d spans over %d ops, written to %s\n", len(spans), len(ops), path)
	_, _ = fmt.Fprintf(w, "%-20s %9s %12s %12s %7s\n", "span", "count", "total_s", "self_s", "self%")
	for _, r := range list {
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.self) / float64(all)
		}
		_, _ = fmt.Fprintf(w, "%-20s %9d %12.4f %12.4f %6.1f%%\n", r.name, r.n, float64(r.total)/1e9, float64(r.self)/1e9, share)
	}
}
