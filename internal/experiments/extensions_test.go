package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestLossModelsReport(t *testing.T) {
	r := LossModels(quickOpts())
	tb := r.Tables[0]
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4 (bernoulli, outage, drop-tail, RED)", tb.NumRows())
	}
	out := tb.ASCII()
	for _, want := range []string{"bernoulli", "outage", "drop-tail", "RED"} {
		if !strings.Contains(out, want) {
			t.Errorf("row %q missing:\n%s", want, out)
		}
	}
	// Every variant must have produced losses and finite errors.
	if strings.Contains(out, "NaN") {
		t.Errorf("NaN in report:\n%s", out)
	}
}

func TestLossModelsFullBeatsTDOnlyEverywhere(t *testing.T) {
	r := LossModels(quickOpts())
	tb := r.Tables[0]
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		full, err1 := strconv.ParseFloat(f[3], 64)
		tdonly, err2 := strconv.ParseFloat(f[5], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable row %q", line)
		}
		if full >= tdonly {
			t.Errorf("%s: full error %.3f not below TD-only %.3f", f[0], full, tdonly)
		}
	}
}

func TestShortFlowsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulations")
	}
	r := ShortFlows(quickOpts())
	tb := r.Tables[0]
	if tb.NumRows() != 6 {
		t.Fatalf("rows = %d, want 6 flow sizes", tb.NumRows())
	}
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	prev := 0.0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		simT, _ := strconv.ParseFloat(f[2], 64)
		ratio, _ := strconv.ParseFloat(f[4], 64)
		if simT < prev {
			t.Errorf("simulated completion time not monotone in flow size: %s", line)
		}
		prev = simT
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("model ratio out of band: %s", line)
		}
	}
	if len(r.Figures) != 1 || len(r.Figures[0].Series) != 2 {
		t.Error("figure missing")
	}
}

func TestRegistryIncludesExtensions(t *testing.T) {
	for _, id := range []string{"lossmodels", "shortflows", "fairness", "multiflow", "regimes", "nonstationary"} {
		if _, err := Get(id); err != nil {
			t.Errorf("extension %s not registered: %v", id, err)
		}
	}
	if len(IDs()) != 17 {
		t.Errorf("registry size = %d, want 17", len(IDs()))
	}
}

func TestFairnessReport(t *testing.T) {
	o := quickOpts()
	o.HourTraceDuration = 1500 // long enough for the controllers to settle
	r := Fairness(o)
	tb := r.Tables[0]
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d, want drop-tail and RED", tb.NumRows())
	}
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	parse := func(line string) (ratio, util float64) {
		f := strings.Split(line, ",")
		ratio, _ = strconv.ParseFloat(f[3], 64)
		util, _ = strconv.ParseFloat(f[6], 64)
		return
	}
	dtRatio, dtUtil := parse(lines[1])
	redRatio, redUtil := parse(lines[2])
	// The drop-tail pathology: paced flow dominates.
	if dtRatio < 1.5 {
		t.Errorf("drop-tail TFRC/TCP ratio = %.2f, expected the pacing advantage (> 1.5)", dtRatio)
	}
	// RED restores approximate fairness.
	if redRatio < 0.4 || redRatio > 2.5 {
		t.Errorf("RED TFRC/TCP ratio = %.2f, want near 1", redRatio)
	}
	if redRatio >= dtRatio {
		t.Errorf("RED ratio %.2f should improve on drop-tail %.2f", redRatio, dtRatio)
	}
	for _, u := range []float64{dtUtil, redUtil} {
		if u < 0.7 || u > 1.1 {
			t.Errorf("link utilization %.2f out of range", u)
		}
	}
}

func TestMultiflowReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates up to 1000 concurrent flows")
	}
	var r *Report
	for _, rep := range quickRunAll() {
		if rep.ID == "multiflow" {
			r = rep
		}
	}
	if r == nil {
		t.Fatal("RunAll produced no multiflow report")
	}
	tb := r.Tables[0]
	if tb.NumRows() != len(multiflowPopulations) {
		t.Fatalf("rows = %d, want %d populations", tb.NumRows(), len(multiflowPopulations))
	}
	var buf strings.Builder
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		mean, _ := strconv.ParseFloat(f[2], 64)
		jain, _ := strconv.ParseFloat(f[4], 64)
		util, _ := strconv.ParseFloat(f[5], 64)
		// Every population must settle near the provisioned fair share
		// with high fairness and a busy link.
		if mean < 0.5*multiflowPerFlowRate || mean > 1.5*multiflowPerFlowRate {
			t.Errorf("mean per-flow rate %.1f far from fair share %.1f: %s", mean, multiflowPerFlowRate, line)
		}
		if jain < 0.9 || jain > 1+1e-9 {
			t.Errorf("Jain index %.3f out of band: %s", jain, line)
		}
		if util < 0.7 || util > 1.1 {
			t.Errorf("utilization %.2f out of range: %s", util, line)
		}
	}
}

func TestRegimesReport(t *testing.T) {
	r := Regimes(quickOpts())
	tb := r.Tables[0]
	if tb.NumRows() != 24 {
		t.Fatalf("rows = %d, want 24 pairs", tb.NumRows())
	}
	out := tb.ASCII()
	// The high-loss pairs must classify as timeout-dominated, the
	// published window-limited one as window-limited.
	for _, want := range []string{"timeout-dominated", "window-limited"} {
		if !strings.Contains(out, want) {
			t.Errorf("regime %q missing:\n%s", want, out)
		}
	}
	// void-tove at p=0.10 is the canonical timeout-dominated trace.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "void-tove") && !strings.Contains(line, "timeout-dominated") {
			t.Errorf("void-tove misclassified: %s", line)
		}
	}
}

func TestEvolutionReport(t *testing.T) {
	r := Evolution(quickOpts())
	if len(r.Figures) != 3 {
		t.Fatalf("panels = %d, want 3 (Figs. 1, 3, 5 regimes)", len(r.Figures))
	}
	// Fig. 1 regime: some TD markers, flight series non-trivial.
	fig1 := r.Figures[0]
	if len(fig1.Series) != 3 {
		t.Fatalf("series = %d", len(fig1.Series))
	}
	if len(fig1.Series[0].X) < 100 {
		t.Error("flight series too short")
	}
	if len(fig1.Series[1].X) == 0 {
		t.Error("no TD events in the Fig. 1 regime")
	}
	// Fig. 3 regime must include timeouts.
	if len(r.Figures[1].Series[2].X) == 0 {
		t.Error("no timeout events in the Fig. 3 regime")
	}
	// Fig. 5 regime: flight capped at Wm=8.
	for _, y := range r.Figures[2].Series[0].Y {
		if y > 8 {
			t.Fatalf("flight %g exceeds the Fig. 5 window cap", y)
		}
	}
}
