package stats

import (
	"math"
	"testing"

	"pftk/internal/proptest"
)

func feq(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestRunningBasics(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Var()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Error("empty Running should report NaN everywhere")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Errorf("N = %d, want 8", r.N())
	}
	if !feq(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", r.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if !feq(r.Var(), 32.0/7, 1e-12) {
		t.Errorf("Var = %g, want %g", r.Var(), 32.0/7)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", r.Min(), r.Max())
	}
	if !feq(r.Sum(), 40, 1e-12) {
		t.Errorf("Sum = %g, want 40", r.Sum())
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Mean() != 3.5 || r.Min() != 3.5 || r.Max() != 3.5 {
		t.Error("single observation stats wrong")
	}
	if !math.IsNaN(r.Var()) {
		t.Error("variance of one sample must be NaN")
	}
}

func TestMeanStd(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !feq(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	if !math.IsNaN(Std([]float64{1})) {
		t.Error("Std of one sample should be NaN")
	}
	if !feq(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), math.Sqrt(32.0/7), 1e-12) {
		t.Error("Std wrong")
	}
}

func TestQuickRunningMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var r Running
		for _, x := range xs {
			r.Add(x)
		}
		scale := math.Max(1, math.Abs(r.Mean()))
		return feq(r.Mean(), Mean(xs), 1e-6*scale) &&
			feq(r.Std(), Std(xs), 1e-6*math.Max(1, r.Std()))
	}
	proptest.Check(t, f, 200)
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Correlation(xs, xs); !feq(got, 1, 1e-12) {
		t.Errorf("self correlation = %g, want 1", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Correlation(xs, neg); !feq(got, -1, 1e-12) {
		t.Errorf("anti correlation = %g, want -1", got)
	}
	if got := Correlation(xs, []float64{2, 2, 2, 2, 2}); !math.IsNaN(got) {
		t.Errorf("constant series should give NaN, got %g", got)
	}
	if got := Correlation(xs, xs[:3]); !math.IsNaN(got) {
		t.Errorf("length mismatch should give NaN, got %g", got)
	}
	if got := Correlation(nil, nil); !math.IsNaN(got) {
		t.Errorf("empty should give NaN, got %g", got)
	}
}

func TestCorrelationInvariantToAffineTransform(t *testing.T) {
	xs := []float64{1, 4, 2, 8, 5, 7}
	ys := []float64{2, 3, 1, 9, 4, 6}
	base := Correlation(xs, ys)
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 3*x + 10
	}
	if got := Correlation(scaled, ys); !feq(got, base, 1e-12) {
		t.Errorf("correlation changed under affine transform: %g vs %g", got, base)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %g, want 5", got)
	}
	if got := Median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); !feq(got, 1.5, 1e-12) {
		t.Errorf("interpolated median = %g, want 1.5", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) || !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("invalid quantile inputs should give NaN")
	}
	// input must not be mutated
	if xs[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestAverageError(t *testing.T) {
	pred := []float64{110, 90, 200}
	obs := []float64{100, 100, 100}
	// |10|/100 + |10|/100 + |100|/100 = 1.2; /3 = 0.4
	if got := AverageError(pred, obs); !feq(got, 0.4, 1e-12) {
		t.Errorf("AverageError = %g, want 0.4", got)
	}
	// zero observations are skipped
	if got := AverageError([]float64{5, 110}, []float64{0, 100}); !feq(got, 0.1, 1e-12) {
		t.Errorf("AverageError with zero obs = %g, want 0.1", got)
	}
	if got := AverageError([]float64{1}, []float64{0}); !math.IsNaN(got) {
		t.Errorf("all-skipped should give NaN, got %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	AverageError([]float64{1}, []float64{1, 2})
}

func TestAverageErrorPerfectPrediction(t *testing.T) {
	obs := []float64{10, 20, 30}
	if got := AverageError(obs, obs); got != 0 {
		t.Errorf("perfect prediction error = %g, want 0", got)
	}
}
