package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pftk/internal/core"
	"pftk/internal/hosts"
	"pftk/internal/tablefmt"
)

// quickOpts scales the campaigns down so tests stay fast while exercising
// the full code path.
func quickOpts() Options {
	return Options{
		HourTraceDuration:  400,
		ShortTraces:        6,
		ShortTraceDuration: 100,
		IntervalWidth:      100,
		Salt:               1,
	}
}

var (
	quickAllOnce sync.Once
	quickAll     []*Report
)

// quickRunAll returns RunAll(quickOpts()), computed once per test binary:
// the tests of the whole harness and of its slowest extension (multiflow)
// share one run.
func quickRunAll() []*Report {
	quickAllOnce.Do(func() { quickAll = RunAll(quickOpts()) })
	return quickAll
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	d := DefaultOptions()
	if o != d {
		t.Errorf("normalize() = %+v, want defaults %+v", o, d)
	}
	q := quickOpts().normalize()
	if q.HourTraceDuration != 400 {
		t.Error("explicit values must survive normalize")
	}
}

func TestRunPairProducesAnalyzedTrace(t *testing.T) {
	pair, _ := hosts.PairByName("void-sutton")
	run := RunPair(pair, 300, 3, 100)
	if run.Summary.PacketsSent == 0 {
		t.Fatal("no packets")
	}
	if len(run.Intervals) != 3 {
		t.Errorf("intervals = %d, want 3", len(run.Intervals))
	}
	pr := run.Params()
	if err := pr.Validate(); err != nil {
		t.Errorf("measured params invalid: %v", err)
	}
	if pr.Wm != float64(pair.Wm) {
		t.Errorf("Wm = %g, want %d", pr.Wm, pair.Wm)
	}
}

func TestPairRunParamsFallBackToPublished(t *testing.T) {
	pair, _ := hosts.PairByName("manic-alps")
	run := PairRun{Pair: pair} // empty summary
	pr := run.Params()
	if pr.RTT != pair.RTT || pr.T0 != pair.T0 {
		t.Errorf("fallback params = %+v", pr)
	}
}

func TestTable1(t *testing.T) {
	r := Table1(quickOpts())
	if r.ID != "table1" || len(r.Tables) != 1 {
		t.Fatalf("report: %+v", r)
	}
	if r.Tables[0].NumRows() != 19 {
		t.Errorf("rows = %d, want 19", r.Tables[0].NumRows())
	}
	out := r.Tables[0].ASCII()
	for _, host := range []string{"manic", "void", "babel", "pif", "att.com"} {
		if !strings.Contains(out, host) {
			t.Errorf("host %s missing from Table I", host)
		}
	}
}

func TestTable2Campaign(t *testing.T) {
	c := RunCampaign(quickOpts())
	if len(c.Runs) != 24 {
		t.Fatalf("campaign runs = %d, want 24", len(c.Runs))
	}
	r := table2From(c)
	if r.Tables[0].NumRows() != 24 {
		t.Errorf("Table II rows = %d, want 24", r.Tables[0].NumRows())
	}
	// The paper's central observation must hold in the reproduction:
	// timeouts dominate loss indications on (nearly) all traces.
	dominated := 0
	for _, run := range c.Runs {
		if run.Summary.TimeoutSequences() >= run.Summary.TD {
			dominated++
		}
	}
	if dominated < len(c.Runs)*3/4 {
		t.Errorf("timeouts dominate on only %d of %d traces", dominated, len(c.Runs))
	}
	// Measured loss rates should be within 4x of calibration targets.
	for _, run := range c.Runs {
		if run.Summary.LossIndications == 0 {
			t.Errorf("%s: no loss indications", run.Pair.Name())
			continue
		}
		ratio := run.Summary.P / run.Pair.P()
		if ratio < 0.25 || ratio > 4 {
			t.Errorf("%s: measured p %.4f vs target %.4f (ratio %.2f)",
				run.Pair.Name(), run.Summary.P, run.Pair.P(), ratio)
		}
	}
	if _, ok := c.Run("manic-alps"); !ok {
		t.Error("campaign lookup failed")
	}
	if _, ok := c.Run("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

func TestFig7Panels(t *testing.T) {
	r := Fig7(quickOpts())
	if len(r.Figures) != 6 {
		t.Fatalf("panels = %d, want 6", len(r.Figures))
	}
	for _, f := range r.Figures {
		names := map[string]bool{}
		for _, s := range f.Series {
			names[s.Name] = true
		}
		for _, want := range []string{"proposed (full)", "proposed (approx)", "TD only"} {
			if !names[want] {
				t.Errorf("panel %q missing series %q", f.Title, want)
			}
		}
	}
}

func TestFig7TDOnlyAboveFullAtHighP(t *testing.T) {
	// Structural property of the curves in every panel: at the largest
	// plotted p, TD-only exceeds the full model.
	r := Fig7(quickOpts())
	for _, f := range r.Figures {
		var full, td *[]float64
		for i := range f.Series {
			switch f.Series[i].Name {
			case "proposed (full)":
				full = &f.Series[i].Y
			case "TD only":
				td = &f.Series[i].Y
			}
		}
		if full == nil || td == nil {
			t.Fatalf("panel %q missing curves", f.Title)
		}
		last := len(*full) - 1
		if (*td)[last] <= (*full)[last] {
			t.Errorf("panel %q: TD-only (%.1f) not above full (%.1f) at max p",
				f.Title, (*td)[last], (*full)[last])
		}
	}
}

func TestFig8(t *testing.T) {
	sc := RunShortCampaign(quickOpts())
	if len(sc.Runs) != 6 {
		t.Fatalf("pairs = %d", len(sc.Runs))
	}
	for i := range sc.Runs {
		if len(sc.Runs[i]) != 6 {
			t.Fatalf("pair %d: %d traces, want 6", i, len(sc.Runs[i]))
		}
	}
	r := fig8From(sc)
	if len(r.Figures) != 6 {
		t.Fatalf("figures = %d", len(r.Figures))
	}
	for _, f := range r.Figures {
		if len(f.Series) != 3 {
			t.Errorf("%q: %d series, want measured/full/TD-only", f.Title, len(f.Series))
		}
	}
}

func TestFig9FullModelWins(t *testing.T) {
	c := RunCampaign(quickOpts())
	r := fig9From(c)
	if len(r.Tables) != 1 || len(r.Figures) != 1 {
		t.Fatalf("report shape: %d tables, %d figures", len(r.Tables), len(r.Figures))
	}
	// Aggregate claim: mean full-model error below mean TD-only error.
	var full, td []float64
	for _, s := range r.Figures[0].Series {
		switch s.Name {
		case "proposed (full)":
			full = s.Y
		case "TD only":
			td = s.Y
		}
	}
	if len(full) == 0 || len(td) != len(full) {
		t.Fatal("series missing")
	}
	var sf, st float64
	for i := range full {
		sf += full[i]
		st += td[i]
	}
	if sf >= st {
		t.Errorf("mean full error %.3f not below TD-only %.3f", sf/float64(len(full)), st/float64(len(td)))
	}
	// TD-only series must be sorted ascending (the paper's x ordering).
	for i := 1; i < len(td); i++ {
		if td[i] < td[i-1]-1e-12 {
			t.Fatal("TD-only errors not sorted")
		}
	}
}

func TestFig10(t *testing.T) {
	r := Fig10(quickOpts())
	if len(r.Tables) != 1 || len(r.Figures) != 1 {
		t.Fatalf("report shape wrong")
	}
	if r.Tables[0].NumRows() == 0 {
		t.Error("no rows")
	}
}

func TestFig11ModemCorrelation(t *testing.T) {
	r := Fig11(quickOpts())
	if len(r.Figures) != 1 || len(r.Tables) != 1 {
		t.Fatalf("report shape wrong")
	}
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "correlation") {
		t.Errorf("notes: %s", joined)
	}
}

func TestFig12MarkovMatch(t *testing.T) {
	r := Fig12(quickOpts())
	f := r.Figures[0]
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	closed, chain := f.Series[0].Y, f.Series[1].Y
	for i := range closed {
		ratio := chain[i] / closed[i]
		if ratio < 0.6 || ratio > 1.6 {
			t.Errorf("p=%.4g: markov/closed = %.2f", f.Series[0].X[i], ratio)
		}
	}
}

func TestFig13ThroughputBelowSendRate(t *testing.T) {
	r := Fig13(quickOpts())
	f := r.Figures[0]
	send, tput := f.Series[0].Y, f.Series[1].Y
	for i := range send {
		if tput[i] > send[i]*(1+1e-9) {
			t.Errorf("throughput above send rate at index %d", i)
		}
	}
	// At the low-p end of the sweep (p = 1e-3) the curve approaches the
	// Wm/RTT ceiling from below.
	ceiling := 12 / 0.47
	if send[0] > ceiling*1.001 || send[0] < 0.85*ceiling {
		t.Errorf("send rate at p->0 = %g, want just below ceiling %g", send[0], ceiling)
	}
}

func TestCorrelationReport(t *testing.T) {
	r := Correlation(quickOpts())
	tb := r.Tables[0]
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d, want 3 wide-area + 1 modem", tb.NumRows())
	}
	out := tb.ASCII()
	if !strings.Contains(out, "modem") {
		t.Error("modem row missing")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 17 {
		t.Fatalf("registry size = %d, want 17", len(ids))
	}
	for _, id := range ids {
		if _, err := Get(id); err != nil {
			t.Errorf("Get(%q): %v", id, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestRunAllShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness")
	}
	reports := quickRunAll()
	if len(reports) != 17 {
		t.Fatalf("reports = %d, want 17 (10 paper artifacts + 7 extension studies)", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" {
			t.Errorf("incomplete report %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate report %s", r.ID)
		}
		seen[r.ID] = true
		if len(r.Tables) == 0 && len(r.Figures) == 0 {
			t.Errorf("report %s has no content", r.ID)
		}
	}
}

func TestModelCurvesScaleWithInterval(t *testing.T) {
	pr := core.NewParams(0.2, 2.0, 12)
	// Direct check: curve Y values are rate*width.
	figA := &tablefmt.Figure{}
	modelCurves(figA, pr, 100, 1e-3, 0.1)
	figB := &tablefmt.Figure{}
	modelCurves(figB, pr, 200, 1e-3, 0.1)
	for i := range figA.Series[0].Y {
		ratio := figB.Series[0].Y[i] / figA.Series[0].Y[i]
		if math.Abs(ratio-2) > 1e-9 {
			t.Fatalf("width scaling broken: ratio %g", ratio)
		}
	}
}
