package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"time"

	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/experiments"
	"pftk/internal/hosts"
	"pftk/internal/markov"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/stats"
	"pftk/internal/workpool"
)

// The paper workload: one op is one validation pass, the pipeline
// someone reproducing the paper runs. It infers p, RTT and T0 from
// simulated traces and compares the closed forms and the Markov chain
// with the measured rates:
//   - one 1-h trace per Table II pair (Table II, Figs. 7 and 9);
//   - 100 x 100-s traces per Fig. 8 pair (Figs. 8 and 10);
//   - the three closed forms over every interval and every short trace;
//   - the 40-point Fig. 12 Markov sweep.
//
// The traces run as jobs on a 2-worker workpool, as the experiments
// campaigns do. The N=1000 multiflow extension is deliberately not part
// of a pass: it has a workload of its own (population).
const (
	paperWorkers  = 2
	hourDuration  = 3600.0
	shortTraces   = 100
	shortDuration = 100.0
	intervalWidth = 100.0
	fig12Points   = 40
	fig12PMin     = 1e-3
	fig12PMax     = 0.7
)

// fig12Config is the Markov chain of Fig. 12 (RTT = 0.47 s, T0 = 3.2 s,
// Wm = 12).
var fig12Config = markov.Config{RTT: 0.47, T0: 3.2, Wm: 12}

// models are the three closed forms of Figs. 9 and 10, in table order.
var models = [3]core.Model{core.ModelFull, core.ModelApprox, core.ModelTDOnly}

// paperCounts are the deterministic counts of one pass. They must
// repeat exactly for the same seed.
type paperCounts struct {
	simEvents, renoPackets, analysisRecords, coreEvals, markovSolves int64
}

func (c *paperCounts) add(o paperCounts) {
	c.simEvents += o.simEvents
	c.renoPackets += o.renoPackets
	c.analysisRecords += o.analysisRecords
	c.coreEvals += o.coreEvals
	c.markovSolves += o.markovSolves
}

// traceOut is what a pass keeps of one trace for the output check.
type traceOut struct {
	pair      hosts.Pair // calibrated
	summary   analysis.Summary
	intervals []analysis.Interval
	// model holds, for an hour trace, the per-interval average error
	// of each closed form (Fig. 9); for a short trace, each closed
	// form's predicted packet count (Figs. 8 and 10).
	model [3]float64
}

// paperOut is a pass's output, reduced to a digest plus counts.
type paperOut struct {
	digest string
	counts paperCounts
}

// passOut is a pass's full output.
type passOut struct {
	hour, short   []traceOut
	fig10         [][3]float64
	closed, chain []float64
	counts        paperCounts
}

func (p passOut) reduce() paperOut {
	return paperOut{digest: p.digest(), counts: p.counts}
}

type paperWork struct {
	salt  uint64
	hour  []hosts.Pair
	short []hosts.Pair
	tr    *tracer

	// wait accumulates the time jobs spent queued (traced phase).
	waitMu sync.Mutex
	wait   time.Duration
}

func newPaperWork(seed uint64, tr *tracer) *paperWork {
	w := &paperWork{salt: seed, hour: hosts.TableII(), short: hosts.Fig8Pairs(), tr: tr}
	// The one-off set-up: fit every pair's drop process to its
	// published loss rate. Passes then find the fits memoized.
	sp := tr.begin("hosts.calibrate", 0, 0)
	for _, p := range w.hour {
		hosts.CalibratedPair(p, hosts.CalibrateOptions{})
	}
	for _, p := range w.short {
		hosts.CalibratedPair(p, hosts.CalibrateOptions{})
	}
	tr.end(sp)
	return w
}

// runTrace simulates and analyzes one trace, the composition of
// experiments.RunPair: calibrated pair, Reno connection, loss-event
// inference, summary and interval decomposition.
func (w *paperWork) runTrace(pair hosts.Pair, dur float64, salt uint64, width float64, parent, op int64, c *paperCounts) traceOut {
	tr := w.tr
	pair = hosts.CalibratedPair(pair, hosts.CalibrateOptions{})
	var eng sim.Engine
	sp := tr.begin("reno.run", parent, op)
	res := reno.NewConnection(&eng, pair.ConnConfig(salt)).Run(dur)
	tr.end(sp)
	c.simEvents += int64(eng.Fired())
	c.renoPackets += int64(res.Stats.TotalSent())
	c.analysisRecords += int64(len(res.Trace))

	sp = tr.begin("analysis.infer", parent, op)
	events := analysis.InferLossEvents(res.Trace, pair.SenderVariant().DupThreshold)
	tr.end(sp)
	sp = tr.begin("analysis.summarize", parent, op)
	sum := analysis.Summarize(res.Trace, events)
	tr.end(sp)
	sp = tr.begin("analysis.intervals", parent, op)
	ivs := analysis.Intervals(res.Trace, events, width)
	tr.end(sp)
	return traceOut{pair: pair, summary: sum, intervals: ivs}
}

// hourModel evaluates the three closed forms over every interval of an
// hour trace and returns their average errors (Fig. 9).
func hourModel(t *traceOut, tr *tracer, parent, op int64, c *paperCounts) {
	pr := experiments.PairRun{Pair: t.pair, Summary: t.summary}.Params()
	sp := tr.begin("core.eval", parent, op)
	for m, model := range models {
		t.model[m] = analysis.ModelError(t.intervals, model, pr)
	}
	tr.end(sp)
	for _, iv := range t.intervals {
		if iv.Packets > 0 {
			c.coreEvals += int64(len(models))
		}
	}
}

// shortModel predicts a short trace's packet count with each closed
// form at its own measured p, RTT and T0 (Figs. 8 and 10).
func shortModel(t *traceOut, tr *tracer, parent, op int64, c *paperCounts) {
	if t.summary.PacketsSent == 0 || t.summary.LossIndications == 0 {
		return
	}
	pr := experiments.PairRun{Pair: t.pair, Summary: t.summary}.Params()
	p := t.summary.P
	sp := tr.begin("core.eval", parent, op)
	t.model = [3]float64{
		core.SendRateFull(p, pr) * shortDuration,
		core.SendRateApprox(p, pr) * shortDuration,
		core.SendRateTDOnly(p, pr.RTT, 2) * shortDuration,
	}
	tr.end(sp)
	c.coreEvals += int64(len(models))
}

// fig12 sweeps the Markov chain against the full closed form.
func fig12(tr *tracer, parent, op int64, c *paperCounts) (closed, chain []float64) {
	pr := core.Params{RTT: fig12Config.RTT, T0: fig12Config.T0, Wm: float64(fig12Config.Wm), B: 2}
	sp := tr.begin("core.eval", parent, op)
	curve := core.Curve(core.ModelFull, pr, fig12PMin, fig12PMax, fig12Points)
	tr.end(sp)
	c.coreEvals += int64(len(curve))
	for _, pt := range curve {
		sp := tr.begin("markov.solve", parent, op)
		m, err := markov.SendRate(pt.P, fig12Config)
		tr.end(sp)
		if err != nil {
			continue
		}
		c.markovSolves++
		closed = append(closed, pt.Rate)
		chain = append(chain, m)
	}
	return closed, chain
}

// pass runs one validation pass on a fresh 2-worker pool.
func (w *paperWork) pass() passOut {
	tr := w.tr
	root := tr.begin("paper.pass", 0, 0)
	op := root.id

	nShort := len(w.short) * shortTraces
	hour := make([]traceOut, len(w.hour))
	short := make([]traceOut, nShort)
	var closed, chain []float64
	// One count slot per job, summed after the pool drains.
	counts := make([]paperCounts, len(w.hour)+nShort+1)
	pool := workpool.New(paperWorkers, len(counts))
	submit := func(k int, job func(parent int64, c *paperCounts)) {
		queued := time.Now()
		pool.Submit(func() {
			if tr != nil {
				w.noteWait(time.Since(queued))
			}
			sp := tr.begin("workpool.job", op, op)
			job(sp.id, &counts[k])
			tr.end(sp)
		})
	}
	for k, pair := range w.hour {
		submit(k, func(parent int64, c *paperCounts) {
			hour[k] = w.runTrace(pair, hourDuration, w.salt, intervalWidth, parent, op, c)
			hourModel(&hour[k], tr, parent, op, c)
		})
	}
	for k := 0; k < nShort; k++ {
		i, j := k/shortTraces, k%shortTraces
		submit(len(w.hour)+k, func(parent int64, c *paperCounts) {
			short[k] = w.runTrace(w.short[i], shortDuration, experiments.TraceSalt(w.salt, i, j), shortDuration, parent, op, c)
			shortModel(&short[k], tr, parent, op, c)
		})
	}
	submit(len(counts)-1, func(parent int64, c *paperCounts) {
		closed, chain = fig12(tr, parent, op, c)
	})
	pool.Close()
	tr.end(root)

	var total paperCounts
	for _, c := range counts {
		total.add(c)
	}
	return passOut{hour: hour, short: short, fig10: fig10(short), closed: closed, chain: chain, counts: total}
}

func (w *paperWork) noteWait(d time.Duration) {
	w.waitMu.Lock()
	w.wait += d
	w.waitMu.Unlock()
}

// fig10 returns each Fig. 8 pair's average error per closed form over
// its short traces that saw packets and losses.
func fig10(short []traceOut) [][3]float64 {
	var out [][3]float64
	for i := 0; i*shortTraces < len(short); i++ {
		var pred [3][]float64
		var obs []float64
		for _, t := range short[i*shortTraces : (i+1)*shortTraces] {
			if t.summary.PacketsSent == 0 || t.summary.LossIndications == 0 {
				continue
			}
			obs = append(obs, float64(t.summary.PacketsSent))
			for m := range pred {
				pred[m] = append(pred[m], t.model[m])
			}
		}
		var errs [3]float64
		for m := range pred {
			errs[m] = stats.AverageError(pred[m], obs)
		}
		out = append(out, errs)
	}
	return out
}

// digest hashes every per-trace summary, interval decomposition and
// model output of a pass, the per-pair Fig. 10 errors and the Fig. 12
// sweep. %v prints floats in their shortest exact form, so equal
// digests mean bit-equal outputs.
func (p passOut) digest() string {
	h := sha256.New()
	for _, t := range p.hour {
		writeTrace(h, t)
	}
	for _, t := range p.short {
		writeTrace(h, t)
	}
	_, _ = fmt.Fprintf(h, "fig10 %v\nfig12 %v %v\n", p.fig10, p.closed, p.chain)
	return hex.EncodeToString(h.Sum(nil))
}

func writeTrace(h hash.Hash, t traceOut) {
	_, _ = fmt.Fprintf(h, "%+v\n%v\n%v\n", t.summary, t.intervals, t.model)
}

// paperReference computes the same digest from the program's own
// campaign code: experiments.RunCampaign and RunShortCampaign at the
// same salt, and the Fig. 12 report's series.
func paperReference(salt uint64) (string, error) {
	o := experiments.Options{
		HourTraceDuration:  hourDuration,
		ShortTraces:        shortTraces,
		ShortTraceDuration: shortDuration,
		IntervalWidth:      intervalWidth,
		Salt:               salt,
		Workers:            paperWorkers,
	}
	long := experiments.RunCampaign(o)
	sc := experiments.RunShortCampaign(o)
	var none paperCounts
	hour := make([]traceOut, len(long.Runs))
	for k, run := range long.Runs {
		hour[k] = traceOut{pair: run.Pair, summary: run.Summary, intervals: run.Intervals}
		hourModel(&hour[k], nil, 0, 0, &none)
	}
	var short []traceOut
	for i := range sc.Pairs {
		for _, run := range sc.Runs[i] {
			t := traceOut{pair: run.Pair, summary: run.Summary, intervals: run.Intervals}
			shortModel(&t, nil, 0, 0, &none)
			short = append(short, t)
		}
	}
	rep := experiments.Fig12(o)
	if len(rep.Figures) != 1 || len(rep.Figures[0].Series) != 2 {
		return "", fmt.Errorf("fig12 report has an unexpected shape")
	}
	s := rep.Figures[0].Series
	return passOut{hour: hour, short: short, fig10: fig10(short), closed: s[0].Y, chain: s[1].Y}.digest(), nil
}

func runPaper(cfg runConfig) (*outcome, error) {
	w := newPaperWork(cfg.seed, cfg.spans)
	if cfg.setupOnly {
		ready()
		return &outcome{}, nil
	}
	out := &outcome{}
	var outs []paperOut
	op := func() func() {
		p := w.pass()
		return func() { outs = append(outs, p.reduce()) }
	}

	// Untraced phase.
	tr := w.tr
	w.tr = nil
	lat := timeOps(cfg.half(), op)
	out.p50, out.p90, out.rates = quantile(lat, 0.5), quantile(lat, 0.9), inverse(lat)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.rssMB = rss

	if cfg.traced {
		w.tr = tr
		before := len(tr.snapshot())
		mem := startMem()
		w.wait = 0
		tlat := timeOps(cfg.half(), op)
		allocMB, gcs := mem.perOp(len(tlat))
		out.tracedRates = inverse(tlat)
		spans := tr.snapshot()
		calib := spans[:before]
		spans = spans[before:]
		n := float64(len(tlat))
		c := outs[len(outs)-1].counts
		out.layer = map[string]float64{
			"hosts.calibrate_s":    total(calib, "hosts.calibrate"),
			"reno.busy_s":          total(spans, "reno.run") / n,
			"reno.packets":         float64(c.renoPackets),
			"sim.events":           float64(c.simEvents),
			"analysis.infer_s":     total(spans, "analysis.infer") / n,
			"analysis.summarize_s": total(spans, "analysis.summarize") / n,
			"analysis.intervals_s": total(spans, "analysis.intervals") / n,
			"analysis.records":     float64(c.analysisRecords),
			"workpool.wait_s":      w.wait.Seconds() / n,
			"workpool.tail_s":      tailSeconds(spans) / n,
			"core.eval_s":          total(spans, "core.eval") / n,
			"core.evals":           float64(c.coreEvals),
			"markov.solve_s":       total(spans, "markov.solve") / n,
			"markov.solves":        float64(c.markovSolves),
			"go.alloc_mb":          allocMB,
			"go.gc_cycles":         gcs,
		}
		addOverhead(out)
	}

	// Output check: every pass must equal the program's campaign at the
	// same salt, and its deterministic counts must repeat exactly.
	want, err := paperReference(w.salt)
	if err != nil {
		return nil, err
	}
	out.attempted = len(outs)
	for i, o := range outs {
		switch {
		case o.digest != want:
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("FAILED: pass %d digest %.12s, campaign %.12s", i, o.digest, want))
		case o.counts != outs[0].counts:
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("FAILED: pass %d counts %+v, pass 0 %+v", i, o.counts, outs[0].counts))
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("paper: %d passes, counts per pass %+v", len(outs), outs[0].counts))
	return out, nil
}

// tailSeconds sums, over the passes in spans, the time between the
// moment one worker ran out of jobs and the end of the pass. With every
// job queued up front, a worker idles only once the queue is empty, so
// that moment is the end of the last job but one.
func tailSeconds(spans []span) float64 {
	type pass struct{ last, second int64 }
	byOp := map[int64]*pass{}
	ends := map[int64]int64{}
	for _, s := range spans {
		switch s.Name {
		case "paper.pass":
			ends[s.Op] = s.End
		case "workpool.job":
			p := byOp[s.Op]
			if p == nil {
				p = &pass{}
				byOp[s.Op] = p
			}
			switch {
			case s.End > p.last:
				p.second, p.last = p.last, s.End
			case s.End > p.second:
				p.second = s.End
			}
		}
	}
	var ns int64
	for op, p := range byOp {
		ns += ends[op] - p.second
	}
	return float64(ns) / 1e9
}

// addOverhead reports traced against untraced throughput.
func addOverhead(out *outcome) {
	un, tr := median(out.rates), median(out.tracedRates)
	out.layer["bench.untraced_ops_per_s"] = un
	out.layer["bench.traced_ops_per_s"] = tr
	out.layer["bench.trace_overhead"] = un/tr - 1
}
