package stats

import (
	"math"
	"testing"
)

// NaN/Inf edge cases: the toolkit must handle non-finite observations
// deterministically (poison to NaN, never a random or order-dependent
// value).

func TestRunningNaNPoisonsDeterministically(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(math.NaN())
	r.Add(2)
	if !math.IsNaN(r.Mean()) {
		t.Errorf("Mean after NaN = %g, want NaN", r.Mean())
	}
	if !math.IsNaN(r.Var()) {
		t.Errorf("Var after NaN = %g, want NaN", r.Var())
	}
	if !math.IsNaN(r.Std()) {
		t.Errorf("Std after NaN = %g, want NaN", r.Std())
	}
	if r.N() != 3 {
		t.Errorf("N = %d, want 3 (counting is exact even when poisoned)", r.N())
	}
	// The same sequence must poison identically every time.
	var r2 Running
	r2.Add(1)
	r2.Add(math.NaN())
	r2.Add(2)
	if !math.IsNaN(r2.Mean()) || r2.N() != r.N() {
		t.Error("identical NaN sequence produced different state")
	}
}

func TestRunningInfPoisons(t *testing.T) {
	var r Running
	r.Add(math.Inf(1))
	if !math.IsInf(r.Mean(), 1) {
		t.Errorf("Mean of {+Inf} = %g, want +Inf", r.Mean())
	}
	r.Add(1)
	// Welford's update subtracts Inf from Inf: NaN, deterministically.
	if !math.IsNaN(r.Mean()) {
		t.Errorf("Mean after Inf then finite = %g, want NaN", r.Mean())
	}
}

func TestMeanStdNaN(t *testing.T) {
	xs := []float64{1, math.NaN(), 3}
	if !math.IsNaN(Mean(xs)) {
		t.Errorf("Mean with NaN = %g, want NaN", Mean(xs))
	}
	if !math.IsNaN(Std(xs)) {
		t.Errorf("Std with NaN = %g, want NaN", Std(xs))
	}
}

func TestCorrelationNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		xs, ys []float64
	}{
		{"NaN in xs", []float64{1, math.NaN(), 3}, []float64{1, 2, 3}},
		{"NaN in ys", []float64{1, 2, 3}, []float64{1, math.NaN(), 3}},
		{"Inf in xs", []float64{1, math.Inf(1), 3}, []float64{1, 2, 3}},
		{"-Inf in ys", []float64{1, 2, 3}, []float64{math.Inf(-1), 2, 3}},
	}
	for _, c := range cases {
		if rho := Correlation(c.xs, c.ys); !math.IsNaN(rho) {
			t.Errorf("%s: Correlation = %g, want NaN", c.name, rho)
		}
	}
}

func TestQuantileNaNSamples(t *testing.T) {
	// Any NaN sample yields NaN regardless of position: the result must
	// not depend on where sorting happens to place the NaN.
	for _, xs := range [][]float64{
		{math.NaN(), 1, 2, 3},
		{1, 2, math.NaN(), 3},
		{1, 2, 3, math.NaN()},
	} {
		for _, q := range []float64{0, 0.5, 1} {
			if v := Quantile(xs, q); !math.IsNaN(v) {
				t.Errorf("Quantile(%v, %g) = %g, want NaN", xs, q, v)
			}
		}
	}
	if !math.IsNaN(Median([]float64{math.NaN()})) {
		t.Error("Median of {NaN} must be NaN")
	}
}

func TestQuantileInfSamples(t *testing.T) {
	// Infinities sort deterministically, so they are legal samples.
	xs := []float64{math.Inf(-1), 0, math.Inf(1)}
	if v := Quantile(xs, 0.5); v != 0 {
		t.Errorf("median of {-Inf, 0, +Inf} = %g, want 0", v)
	}
	if v := Quantile(xs, 0); !math.IsInf(v, -1) {
		t.Errorf("q=0 of {-Inf, 0, +Inf} = %g, want -Inf", v)
	}
	if v := Quantile(xs, 1); !math.IsInf(v, 1) {
		t.Errorf("q=1 of {-Inf, 0, +Inf} = %g, want +Inf", v)
	}
}

func TestAverageErrorNaNPairsSkipped(t *testing.T) {
	// NaN pairs are skipped like zero-observed pairs; only the clean
	// pair contributes.
	pred := []float64{math.NaN(), 2, 110}
	obs := []float64{5, math.NaN(), 100}
	got := AverageError(pred, obs)
	if math.Abs(got-0.1) > 1e-12 {
		t.Errorf("AverageError = %g, want 0.1", got)
	}
	// All pairs unusable: NaN, deterministically.
	if !math.IsNaN(AverageError([]float64{math.NaN()}, []float64{1})) {
		t.Error("all-NaN AverageError must be NaN")
	}
}
