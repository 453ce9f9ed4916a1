package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"pftk/internal/analysis"
	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/reno"
	"pftk/internal/scenario"
	"pftk/internal/sim"
	"pftk/internal/stats"
	"pftk/internal/tablefmt"
	"pftk/internal/workpool"
)

// NonstationaryCase couples a base path with a scenario schedule: the
// path starts at (RTT, LossRate) and the scenario rewrites it mid-run.
type NonstationaryCase struct {
	Name     string
	RTT      float64
	LossRate float64
	Wm       int
	Scenario *scenario.Scenario
}

// NonstationaryCases builds the bundled schedule set for traces of T
// simulated seconds. The paper's validation assumes a stationary p per
// trace; these schedules deliberately break that assumption so the
// campaign can measure how far per-interval application of the model
// (each interval priced at its own observed p) carries into
// nonstationary regimes.
func NonstationaryCases(T float64) []NonstationaryCase {
	rtt := func(v float64) *float64 { return &v }
	return []NonstationaryCase{
		{
			// The canonical step: p jumps 0.01 -> 0.06 at T/2.
			Name: "step-loss", RTT: 0.1, LossRate: 0.01, Wm: 64,
			Scenario: &scenario.Scenario{
				Name: "step-loss",
				Phases: []scenario.Phase{
					{At: T / 2, Loss: &scenario.LossSpec{Rate: 0.06}},
				},
			},
		},
		{
			// A staircase ramp: p doubles at each quarter of the trace.
			Name: "ramp-loss", RTT: 0.1, LossRate: 0.01, Wm: 64,
			Scenario: &scenario.Scenario{
				Name: "ramp-loss",
				Phases: []scenario.Phase{
					{At: T / 4, Loss: &scenario.LossSpec{Rate: 0.02}},
					{At: T / 2, Loss: &scenario.LossSpec{Rate: 0.04}},
					{At: 3 * T / 4, Loss: &scenario.LossSpec{Rate: 0.08}},
				},
			},
		},
		{
			// The loss process itself changes family at T/2: same aggregate
			// rate, but bursty (Gilbert-Elliott, mean burst 4) instead of
			// i.i.d. — the Section IV correlation caveat in schedule form.
			Name: "burstiness-shift", RTT: 0.1, LossRate: 0.03, Wm: 64,
			Scenario: &scenario.Scenario{
				Name: "burstiness-shift",
				Phases: []scenario.Phase{
					{At: T / 2, Loss: &scenario.LossSpec{Rate: 0.03, Model: scenario.LossGE, BurstLen: 4}},
				},
			},
		},
		{
			// RTT triples at T/2 while p holds: tests the RTT term, not
			// the loss term.
			Name: "rtt-shift", RTT: 0.08, LossRate: 0.02, Wm: 32,
			Scenario: &scenario.Scenario{
				Name: "rtt-shift",
				Phases: []scenario.Phase{
					{At: T / 2, RTT: rtt(0.24)},
				},
			},
		},
		{
			// Periodic 2-second outages on an otherwise mild path: each
			// window forces timeout sequences, so intervals containing one
			// land in the paper's T0+/T1+ categories.
			Name: "periodic-outage", RTT: 0.1, LossRate: 0.01, Wm: 32,
			Scenario: &scenario.Scenario{
				Name: "periodic-outage",
				Faults: []scenario.Fault{
					{Kind: scenario.KindOutage, Start: T / 8, Dur: 2, Period: T / 4},
				},
			},
		},
	}
}

// NonstationaryRun is one finished scheduled-path trace with its
// analysis products and the engine's per-segment drop attribution.
type NonstationaryRun struct {
	Case      NonstationaryCase
	Result    reno.Result
	Summary   analysis.Summary
	Intervals []analysis.Interval
	// Phases attributes offered/dropped packets to scenario segments as
	// reported by the scenario runner (ground truth, independent of the
	// wire-level inference in Intervals).
	Phases []scenario.PhaseStat
	// Obs is the run's metric snapshot; nil unless Options.Obs (or a
	// metrics writer) was set.
	Obs *obs.Snapshot
	// WallSeconds is the wall-clock cost of simulating and analyzing
	// the trace.
	WallSeconds float64
}

// Params returns model parameters measured from the whole trace, as the
// paper does: trace-average RTT and T0, the case's advertised window.
// With a nonstationary schedule these are averages over the schedule,
// which is exactly the handicap the campaign quantifies.
func (nr NonstationaryRun) Params() core.Params {
	p := core.Params{RTT: nr.Summary.MeanRTT, T0: nr.Summary.MeanT0, Wm: float64(nr.Case.Wm), B: 2}
	if !(p.RTT > 0) {
		p.RTT = nr.Case.RTT
	}
	if !(p.T0 > 0) {
		p.T0 = math.Max(1, 4*p.RTT)
	}
	return p
}

// runNonstationary simulates one scheduled-path connection and analyzes
// its trace. It is a pure function of (cs, duration, salt, width), which
// is what makes the campaign's output independent of the worker count.
func runNonstationary(cs NonstationaryCase, duration float64, salt uint64, width float64, reg *obs.Registry) NonstationaryRun {
	start := time.Now()
	rng := sim.NewRNG(salt)
	loss := netem.NewBernoulli(cs.LossRate, rng.Fork("loss"))
	cfg := reno.ConnConfig{
		Sender:   reno.SenderConfig{RWnd: cs.Wm, MinRTO: 1},
		Receiver: reno.ReceiverConfig{AckEvery: 2},
		Path:     netem.SymmetricPath(cs.RTT/2, loss),
	}
	cfg.Sender.Metrics = reno.NewMetrics(reg)
	var eng sim.Engine
	conn := reno.NewConnection(&eng, cfg)
	runner := scenario.Bind(&eng, conn.Path, scenario.Config{
		Scenario: cs.Scenario,
		RNG:      rng.Fork("scenario"),
		Base:     scenario.Base{RTT: cs.RTT, Loss: loss},
		Horizon:  duration,
		Registry: reg,
	})
	res := conn.Run(duration)
	conn.RecordMetrics(reg)
	runner.RecordMetrics()
	events := analysis.InferLossEvents(res.Trace, 3)
	nr := NonstationaryRun{
		Case:      cs,
		Result:    res,
		Summary:   analysis.Summarize(res.Trace, events),
		Intervals: analysis.Intervals(res.Trace, events, width),
		Phases:    runner.Finish(),
	}
	if reg != nil {
		snap := reg.Snapshot()
		nr.Obs = &snap
	}
	nr.WallSeconds = time.Since(start).Seconds()
	return nr
}

// NonstationaryCampaign holds one scheduled-path trace per bundled case.
type NonstationaryCampaign struct {
	Opts Options
	Runs []NonstationaryRun
}

// nonstationarySaltLane separates this campaign's random streams from
// the hour campaign (lane 0 is unused by TraceSalt's other callers,
// which key on real pair indexes).
const nonstationarySaltLane = 0x5ce

// RunNonstationaryCampaign executes one HourTraceDuration trace per
// bundled nonstationary case, Workers cases at a time. Per-case salts
// make runs order-independent, so any worker count produces
// byte-identical campaign results — including the scenario engine's
// mid-run path mutations, which happen on each case's private engine.
func RunNonstationaryCampaign(o Options) *NonstationaryCampaign {
	o = o.normalize()
	cases := NonstationaryCases(o.HourTraceDuration)
	c := &NonstationaryCampaign{Opts: o, Runs: make([]NonstationaryRun, len(cases))}
	prog := obs.NewProgress(o.Progress, "nonstationary campaign", len(cases))
	pool := workpool.New(o.Workers, len(cases))
	for k := range cases {
		pool.Submit(func() {
			var reg *obs.Registry
			if o.obsEnabled() {
				reg = obs.New()
			}
			c.Runs[k] = runNonstationary(cases[k], o.HourTraceDuration, TraceSalt(o.Salt, nonstationarySaltLane, k), o.IntervalWidth, reg)
			prog.Step(cases[k].Name)
		})
	}
	pool.Close()
	// Export in case order regardless of completion order, mirroring the
	// other campaigns' reproducible-metrics convention.
	for _, run := range c.Runs {
		if o.Metrics != nil && run.Obs != nil {
			_ = o.Metrics.Write(obs.RunRecord{
				Experiment:  "nonstationary",
				Pair:        run.Case.Name,
				SimSeconds:  o.HourTraceDuration,
				WallSeconds: run.WallSeconds,
				Metrics:     *run.Obs,
			})
		}
	}
	prog.Done()
	return c
}

// Nonstationary regenerates the scheduled-path validation: per-interval
// measured packets against per-interval model predictions (each interval
// priced at its own observed p), a Fig. 9-style average-error comparison
// across the bundled schedules, and the engine's ground-truth per-phase
// drop attribution.
func Nonstationary(o Options) *Report {
	return nonstationaryFrom(RunNonstationaryCampaign(o))
}

func nonstationaryFrom(c *NonstationaryCampaign) *Report {
	r := &Report{ID: "nonstationary", Title: "Nonstationary paths: per-interval model tracking under scheduled loss/RTT changes"}

	// Per-case tracking figures: the Fig. 7 comparison unrolled over
	// time, so the scheduled steps are visible as level shifts in both
	// the measured series and the per-interval predictions.
	for _, run := range c.Runs {
		pr := run.Params()
		f := &tablefmt.Figure{
			Title:  fmt.Sprintf("%s: packets per %.0f-s interval (RTT=%.3f, T0=%.3f)", run.Case.Name, c.Opts.IntervalWidth, pr.RTT, pr.T0),
			XLabel: "interval start (s)",
			YLabel: "packets",
		}
		var xs, measured, full, tdonly, ps []float64
		for _, iv := range run.Intervals {
			if iv.Packets == 0 {
				continue
			}
			xs = append(xs, iv.Start)
			measured = append(measured, float64(iv.Packets))
			full = append(full, analysis.PredictPackets(iv, core.ModelFull, pr))
			tdonly = append(tdonly, analysis.PredictPackets(iv, core.ModelTDOnly, pr))
			ps = append(ps, iv.P())
		}
		f.Add("measured", xs, measured)
		f.Add("proposed (full)", xs, full)
		f.Add("TD only", xs, tdonly)
		r.Figures = append(r.Figures, f)

		pf := &tablefmt.Figure{
			Title:  run.Case.Name + ": observed loss frequency per interval",
			XLabel: "interval start (s)",
			YLabel: "p",
		}
		pf.Add("p", xs, ps)
		r.Figures = append(r.Figures, pf)
	}

	// Fig. 9-style comparison: per-schedule average error of each model,
	// sorted by increasing TD-only error.
	type row struct {
		name               string
		full, approx, tdon float64
	}
	var rows []row
	for _, run := range c.Runs {
		pr := run.Params()
		fe := analysis.ModelError(run.Intervals, core.ModelFull, pr)
		ae := analysis.ModelError(run.Intervals, core.ModelApprox, pr)
		te := analysis.ModelError(run.Intervals, core.ModelTDOnly, pr)
		if math.IsNaN(fe) || math.IsNaN(te) {
			continue
		}
		rows = append(rows, row{run.Case.Name, fe, ae, te})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].tdon < rows[j].tdon })
	t := tablefmt.New("Schedule", "TD only", "Proposed (full)", "Proposed (approx)")
	fig := &tablefmt.Figure{Title: "average error per schedule (sorted by TD-only error)", XLabel: "schedule", YLabel: "average error"}
	var xs, fe, ae, te []float64
	// The summary counts and averages only schedules whose errors are all
	// finite: an infinite error (an interval priced at p = 0) would make
	// any finite error a "win" and every mean +Inf.
	var finFull, finApprox, finTD []float64
	var excluded []string
	better := 0
	for i, rw := range rows {
		t.AddRow(rw.name, fmt.Sprintf("%.3f", rw.tdon), fmt.Sprintf("%.3f", rw.full), fmt.Sprintf("%.3f", rw.approx))
		xs = append(xs, float64(i))
		fe = append(fe, rw.full)
		ae = append(ae, rw.approx)
		te = append(te, rw.tdon)
		if math.IsInf(rw.full, 0) || math.IsInf(rw.approx, 0) || math.IsInf(rw.tdon, 0) {
			excluded = append(excluded, rw.name)
			continue
		}
		finFull = append(finFull, rw.full)
		finApprox = append(finApprox, rw.approx)
		finTD = append(finTD, rw.tdon)
		if rw.full < rw.tdon {
			better++
		}
	}
	fig.Add("TD only", xs, te)
	fig.Add("proposed (full)", xs, fe)
	fig.Add("proposed (approx)", xs, ae)
	r.Tables = append(r.Tables, t)
	r.Figures = append(r.Figures, fig)

	// The engine's ground-truth attribution: what each scheduled segment
	// actually did to the packets offered during it.
	pt := tablefmt.New("Schedule", "Segment", "Window (s)", "Offered", "Dropped", "Drop rate")
	for _, run := range c.Runs {
		for _, ps := range run.Phases {
			seg := "base"
			if ps.Phase >= 0 {
				seg = fmt.Sprintf("phase %d", ps.Phase)
			}
			rate := 0.0
			if ps.Offered > 0 {
				rate = float64(ps.Dropped) / float64(ps.Offered)
			}
			pt.AddRow(run.Case.Name, seg,
				fmt.Sprintf("[%.0f, %.0f)", ps.Start, ps.End),
				fmt.Sprintf("%d", ps.Offered),
				fmt.Sprintf("%d", ps.Dropped),
				fmt.Sprintf("%.4f", rate))
		}
	}
	r.Tables = append(r.Tables, pt)

	r.note("each interval is priced at its own observed p; trace-average RTT/T0 are the only stationary inputs")
	r.note("full model beats TD-only on %d of %d schedules with finite errors", better, len(finTD))
	if len(finTD) > 0 {
		r.note("mean errors over those schedules: TD-only %.3f, full %.3f, approx %.3f",
			stats.Mean(finTD), stats.Mean(finFull), stats.Mean(finApprox))
	}
	if len(excluded) > 0 {
		r.note("excluded from the count and the means (an infinite error): %s", strings.Join(excluded, ", "))
	}
	return r
}
