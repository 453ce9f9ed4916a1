// Package experiments regenerates every table and figure of the paper's
// evaluation (Table I, Table II, Figs. 7-13) plus the Section IV
// RTT-window correlation study, using the emulated measurement
// infrastructure in place of the 1997-98 Internet.
//
// Each experiment produces a Report holding ASCII-renderable tables and
// CSV-exportable figures; the cmd/experiments binary writes them to disk.
// Durations are scalable through Options so tests and benchmarks can run
// abbreviated campaigns with the same code path as the full
// reproduction.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/hosts"
	"pftk/internal/obs"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/tablefmt"
	"pftk/internal/workpool"
)

// Options scales the campaigns.
type Options struct {
	// HourTraceDuration is the length of each "1-hour" trace in
	// simulated seconds (paper: 3600).
	HourTraceDuration float64
	// ShortTraces is the number of serial connections in the 100-second
	// campaign (paper: 100).
	ShortTraces int
	// ShortTraceDuration is each short connection's length (paper: 100).
	ShortTraceDuration float64
	// IntervalWidth divides hour traces for the scatter plots and error
	// metrics (paper: 100).
	IntervalWidth float64
	// Salt perturbs all random streams.
	Salt uint64
	// Workers bounds how many traces are simulated concurrently (one
	// worker per host pair or connection); 0 means GOMAXPROCS, 1 forces
	// the serial order. Per-trace salts make runs order-independent, so
	// any worker count produces byte-identical campaign results.
	Workers int
	// Obs enables per-run metric collection: every PairRun then carries
	// the obs.Snapshot of its private registry (engine event counts,
	// link drops by cause, sender cwnd/indication/backoff metrics).
	// Implied by a non-nil Metrics writer.
	Obs bool
	// Progress, when non-nil, receives live per-pair/per-trace progress
	// lines with an ETA (campaign tools pass stderr).
	Progress io.Writer
	// Metrics, when non-nil, receives one obs.RunRecord per simulated
	// trace — the JSONL export behind `experiments -metrics`.
	Metrics *obs.JSONLWriter
}

// obsEnabled reports whether runs should collect metrics.
func (o Options) obsEnabled() bool { return o.Obs || o.Metrics != nil }

// DefaultOptions reproduces the paper's campaign dimensions.
func DefaultOptions() Options {
	return Options{
		HourTraceDuration:  3600,
		ShortTraces:        100,
		ShortTraceDuration: 100,
		IntervalWidth:      100,
		Workers:            runtime.GOMAXPROCS(0),
	}
}

func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.HourTraceDuration <= 0 {
		o.HourTraceDuration = d.HourTraceDuration
	}
	if o.ShortTraces <= 0 {
		o.ShortTraces = d.ShortTraces
	}
	if o.ShortTraceDuration <= 0 {
		o.ShortTraceDuration = d.ShortTraceDuration
	}
	if o.IntervalWidth <= 0 {
		o.IntervalWidth = d.IntervalWidth
	}
	if o.Workers <= 0 {
		o.Workers = d.Workers
	}
	return o
}

// PairRun is one finished trace with its analysis products.
type PairRun struct {
	Pair      hosts.Pair
	Result    reno.Result
	Events    []analysis.LossEvent
	Summary   analysis.Summary
	Intervals []analysis.Interval
	// Obs is the run's metric snapshot; nil unless Options.Obs (or a
	// metrics writer) was set.
	Obs *obs.Snapshot
	// WallSeconds is the wall-clock cost of simulating and analyzing
	// the trace.
	WallSeconds float64
}

// Params returns the model parameters measured from the run, following
// the paper's methodology: RTT and T0 are trace averages, Wm is the
// receiver's advertised window. Missing measurements fall back to the
// pair's published values.
func (pr PairRun) Params() core.Params {
	p := core.Params{RTT: pr.Summary.MeanRTT, T0: pr.Summary.MeanT0, Wm: float64(pr.Pair.Wm), B: 2}
	if !(p.RTT > 0) {
		p.RTT = pr.Pair.RTT
	}
	if !(p.T0 > 0) {
		p.T0 = pr.Pair.T0
	}
	return p
}

// RunPair simulates one bulk-transfer connection for the pair (after
// fitting its drop process to the published loss rate) and analyzes its
// trace with the wire-level inference pipeline.
func RunPair(p hosts.Pair, duration float64, salt uint64, intervalWidth float64) PairRun {
	return runPair(p, duration, salt, intervalWidth, nil)
}

// runPair is RunPair with metric collection on reg (nil disables it):
// the connection's metrics are recorded when the run ends, and the
// returned PairRun carries the registry's final snapshot.
func runPair(p hosts.Pair, duration float64, salt uint64, intervalWidth float64, reg *obs.Registry) PairRun {
	start := time.Now()
	p = hosts.CalibratedPair(p, hosts.CalibrateOptions{})
	cfg := p.ConnConfig(salt)
	cfg.Sender.Metrics = reno.NewMetrics(reg)
	var eng sim.Engine
	conn := reno.NewConnection(&eng, cfg)
	res := conn.Run(duration)
	conn.RecordMetrics(reg)
	events := analysis.InferLossEvents(res.Trace, p.SenderVariant().DupThreshold)
	pr := PairRun{
		Pair:      p,
		Result:    res,
		Events:    events,
		Summary:   analysis.Summarize(res.Trace, events),
		Intervals: analysis.Intervals(res.Trace, events, intervalWidth),
	}
	if reg != nil {
		snap := reg.Snapshot()
		pr.Obs = &snap
	}
	pr.WallSeconds = time.Since(start).Seconds()
	return pr
}

// record exports one finished run to the campaign's metrics writer, when
// configured. Export failures are swallowed here and surface through the
// writer's sticky error at Flush time.
func (o Options) record(experiment string, trace int, duration float64, pr PairRun) {
	if o.Metrics == nil || pr.Obs == nil {
		return
	}
	_ = o.Metrics.Write(obs.RunRecord{
		Experiment:  experiment,
		Pair:        pr.Pair.Name(),
		Trace:       trace,
		SimSeconds:  duration,
		WallSeconds: pr.WallSeconds,
		Metrics:     *pr.Obs,
	})
}

// Campaign holds the full 1-hour-per-pair measurement campaign.
type Campaign struct {
	Opts Options
	Runs []PairRun
}

// runParallel executes n independent trace jobs across Options.Workers
// goroutines using the same worker-pool primitive as the pftkd service.
// run(k) must be a pure function of k (per-trace salts make the
// simulations order-independent); results come back indexed, so any
// worker count yields byte-identical campaign output. prog is stepped as
// jobs finish — progress order is the only thing concurrency changes.
func (o Options) runParallel(n int, prog *obs.Progress, run func(k int, reg *obs.Registry) PairRun, unit func(k int) string) []PairRun {
	runs := make([]PairRun, n)
	pool := workpool.New(o.Workers, n)
	for k := 0; k < n; k++ {
		pool.Submit(func() {
			var reg *obs.Registry
			if o.obsEnabled() {
				reg = obs.New()
			}
			runs[k] = run(k, reg)
			prog.Step(unit(k))
		})
	}
	// Close drains every submitted job before returning — the barrier
	// that makes the indexed writes above visible here.
	pool.Close()
	return runs
}

// RunCampaign executes the Table II campaign: one HourTraceDuration trace
// per Table II pair, Workers pairs at a time.
func RunCampaign(o Options) *Campaign {
	o = o.normalize()
	c := &Campaign{Opts: o}
	pairs := hosts.TableII()
	prog := obs.NewProgress(o.Progress, "hour campaign", len(pairs))
	runs := o.runParallel(len(pairs), prog,
		func(k int, reg *obs.Registry) PairRun {
			return runPair(pairs[k], o.HourTraceDuration, o.Salt, o.IntervalWidth, reg)
		},
		func(k int) string { return pairs[k].Name() })
	// Export in pair order regardless of completion order, so a metrics
	// file is reproducible across worker counts (up to wall-clock
	// fields).
	for _, run := range runs {
		o.record("hour", 0, o.HourTraceDuration, run)
	}
	c.Runs = runs
	prog.Done()
	return c
}

// Run returns the campaign run for the named pair.
func (c *Campaign) Run(name string) (PairRun, bool) {
	for _, r := range c.Runs {
		if r.Pair.Name() == name {
			return r, true
		}
	}
	return PairRun{}, false
}

// ShortCampaign holds the Fig. 8 / Fig. 10 campaign: for each pair,
// ShortTraces serial connections of ShortTraceDuration seconds.
type ShortCampaign struct {
	Opts  Options
	Pairs []hosts.Pair
	// Runs[i][j] is connection j of pair i.
	Runs [][]PairRun
}

// RunShortCampaign executes the 100 x 100-second campaign over the Fig. 8
// pairs. All connections across all pairs share one worker pool, so the
// campaign parallelizes even when one pair dominates.
func RunShortCampaign(o Options) *ShortCampaign {
	o = o.normalize()
	sc := &ShortCampaign{Opts: o, Pairs: hosts.Fig8Pairs()}
	sc.Runs = make([][]PairRun, len(sc.Pairs))
	n := len(sc.Pairs) * o.ShortTraces
	prog := obs.NewProgress(o.Progress, "short campaign", n)
	// Job k is connection k%ShortTraces of pair k/ShortTraces; TraceSalt
	// keys the random streams on (i, j), not on execution order.
	runs := o.runParallel(n, prog,
		func(k int, reg *obs.Registry) PairRun {
			i, j := k/o.ShortTraces, k%o.ShortTraces
			// Each short trace is analyzed as a single interval.
			return runPair(sc.Pairs[i], o.ShortTraceDuration, TraceSalt(o.Salt, i, j), o.ShortTraceDuration, reg)
		},
		func(k int) string {
			return fmt.Sprintf("%s #%d", sc.Pairs[k/o.ShortTraces].Name(), k%o.ShortTraces+1)
		})
	for i := range sc.Pairs {
		sc.Runs[i] = runs[i*o.ShortTraces : (i+1)*o.ShortTraces]
		for j, run := range sc.Runs[i] {
			o.record("short", j, o.ShortTraceDuration, run)
		}
	}
	prog.Done()
	return sc
}

// Report is the renderable output of one experiment.
type Report struct {
	// ID is the registry key ("table2", "fig9", ...).
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Tables and Figures carry the regenerated content.
	Tables  []*tablefmt.Table
	Figures []*tablefmt.Figure
	// Notes carry free-form commentary (expected shapes, caveats).
	Notes []string
}

// note appends a formatted note.
func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}
