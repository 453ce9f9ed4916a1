package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pftk/internal/analysis"
	"pftk/internal/core"
)

// nsQuickOpts shrinks the nonstationary campaign for tests: 400-second
// traces keep every schedule's phase boundaries (they scale with T)
// while finishing in well under a second per case.
func nsQuickOpts() Options {
	return Options{
		HourTraceDuration: 400,
		IntervalWidth:     50,
		Salt:              9,
	}
}

// TestNonstationaryStepVisible pins the campaign's reason to exist: the
// step-loss schedule must show up in the per-interval analysis as a
// clear jump of observed p at T/2, and the scenario runner's
// ground-truth attribution must put the boundary exactly there.
func TestNonstationaryStepVisible(t *testing.T) {
	o := nsQuickOpts().normalize()
	c := RunNonstationaryCampaign(nsQuickOpts())
	var step *NonstationaryRun
	for i := range c.Runs {
		if c.Runs[i].Case.Name == "step-loss" {
			step = &c.Runs[i]
		}
	}
	if step == nil {
		t.Fatal("step-loss case missing from campaign")
	}
	half := o.HourTraceDuration / 2
	var lo, hi, nLo, nHi float64
	for _, iv := range step.Intervals {
		if iv.Packets == 0 {
			continue
		}
		if iv.End <= half {
			lo += iv.P()
			nLo++
		} else if iv.Start >= half {
			hi += iv.P()
			nHi++
		}
	}
	if nLo == 0 || nHi == 0 {
		t.Fatal("no populated intervals on one side of the step")
	}
	if !(hi/nHi > 2*(lo/nLo)) {
		t.Errorf("step not visible in per-interval p: before %.4f, after %.4f", lo/nLo, hi/nHi)
	}
	if len(step.Phases) != 2 {
		t.Fatalf("phase stats = %+v, want base + step", step.Phases)
	}
	if step.Phases[0].End != half || step.Phases[1].Start != half {
		t.Errorf("ground-truth boundary not at T/2: %v | %v", step.Phases[0], step.Phases[1])
	}
}

// TestNonstationaryReport checks the rendered artifact: two figures per
// schedule plus the error comparison, the Fig. 9-style table, and the
// per-phase attribution table naming every bundled schedule.
func TestNonstationaryReport(t *testing.T) {
	r := Nonstationary(nsQuickOpts())
	if r.ID != "nonstationary" {
		t.Fatalf("ID = %q", r.ID)
	}
	cases := NonstationaryCases(nsQuickOpts().normalize().HourTraceDuration)
	if want := 2*len(cases) + 1; len(r.Figures) != want {
		t.Errorf("figures = %d, want %d", len(r.Figures), want)
	}
	if len(r.Tables) != 2 {
		t.Fatalf("tables = %d, want error table + phase table", len(r.Tables))
	}
	phaseTable := r.Tables[1].ASCII()
	for _, cs := range cases {
		if !strings.Contains(phaseTable, cs.Name) {
			t.Errorf("schedule %q missing from phase-attribution table", cs.Name)
		}
	}
	if len(r.Notes) == 0 {
		t.Error("report carries no notes")
	}
}

// TestNonstationarySummaryCountsFiniteErrorsOnly: at the default
// options one schedule prices an interval at p = 0 and gets an infinite
// TD-only error. The summary notes must count wins and average errors
// over the schedules with finite errors only, name each excluded
// schedule, and never print an infinite mean.
func TestNonstationarySummaryCountsFiniteErrorsOnly(t *testing.T) {
	var opts Options
	c := RunNonstationaryCampaign(opts)
	var excluded []string
	finite, better := 0, 0
	for _, run := range c.Runs {
		pr := run.Params()
		fe := analysis.ModelError(run.Intervals, core.ModelFull, pr)
		ae := analysis.ModelError(run.Intervals, core.ModelApprox, pr)
		te := analysis.ModelError(run.Intervals, core.ModelTDOnly, pr)
		switch {
		case math.IsNaN(fe) || math.IsNaN(te):
		case math.IsInf(fe, 0) || math.IsInf(ae, 0) || math.IsInf(te, 0):
			excluded = append(excluded, run.Case.Name)
		default:
			finite++
			if fe < te {
				better++
			}
		}
	}
	if len(excluded) == 0 {
		t.Fatal("no schedule has an infinite error at the default options; the test no longer covers the exclusion")
	}
	notes := strings.Join(Nonstationary(opts).Notes, "\n")
	if want := fmt.Sprintf("full model beats TD-only on %d of %d schedules with finite errors", better, finite); !strings.Contains(notes, want) {
		t.Errorf("notes lack %q:\n%s", want, notes)
	}
	for _, name := range excluded {
		if !strings.Contains(notes, name) {
			t.Errorf("excluded schedule %q is not named in the notes:\n%s", name, notes)
		}
	}
	if strings.Contains(notes, "Inf") || strings.Contains(notes, "NaN") {
		t.Errorf("notes print a non-finite value:\n%s", notes)
	}
}

// stripNSWallClock zeroes the only timing-dependent field of a
// NonstationaryRun so runs can be compared across worker counts.
func stripNSWallClock(runs []NonstationaryRun) []NonstationaryRun {
	out := append([]NonstationaryRun(nil), runs...)
	for i := range out {
		out[i].WallSeconds = 0
	}
	return out
}

// TestNonstationaryParallelDeterminism is the scenario-engine race/
// determinism gate (run under -race in CI): scenarios mutate path
// parameters mid-run on each case's private engine, and the campaign
// must still be byte-identical for any worker count (-j 1 vs -j 8 —
// more workers than cases, so the pool saturates and ordering is
// maximally perturbed).
func TestNonstationaryParallelDeterminism(t *testing.T) {
	serialOpts, parallelOpts := nsQuickOpts(), nsQuickOpts()
	serialOpts.Workers = 1
	parallelOpts.Workers = 8

	serial := RunNonstationaryCampaign(serialOpts)
	parallel := RunNonstationaryCampaign(parallelOpts)
	if len(serial.Runs) != len(parallel.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.Runs), len(parallel.Runs))
	}
	a, b := stripNSWallClock(serial.Runs), stripNSWallClock(parallel.Runs)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("case %d (%s) differs between -j 1 and -j 8", i, a[i].Case.Name)
		}
	}

	// The rendered artifact is the user-visible output; it must match to
	// the byte.
	sr, pr := nonstationaryFrom(serial), nonstationaryFrom(parallel)
	for i := range sr.Tables {
		if sr.Tables[i].ASCII() != pr.Tables[i].ASCII() {
			t.Errorf("table %d renders differently between -j 1 and -j 8", i)
		}
	}
	if !reflect.DeepEqual(sr.Figures, pr.Figures) {
		t.Error("figures differ between -j 1 and -j 8")
	}
}

// TestNonstationaryObserved runs the metric-collecting path: every run
// carries its own registry snapshot including the scenario engine's
// transition counters.
func TestNonstationaryObserved(t *testing.T) {
	o := nsQuickOpts()
	o.Obs = true
	c := RunNonstationaryCampaign(o)
	for _, run := range c.Runs {
		if run.Obs == nil {
			t.Fatalf("%s: missing snapshot", run.Case.Name)
		}
		if run.Case.Scenario != nil && len(run.Case.Scenario.Phases) > 0 {
			if n := run.Obs.Counter("scenario.transitions"); n == 0 {
				t.Errorf("%s: scenario.transitions = 0, want > 0", run.Case.Name)
			}
		}
	}
}
