package core

import (
	"math"
	"testing"

	"pftk/internal/proptest"
)

func TestLossRateForRoundTrip(t *testing.T) {
	pr := NewParams(0.25, 2.0, 0)
	for _, p := range []float64{1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3} {
		rate := SendRateFull(p, pr)
		got, err := LossRateFor(rate, pr)
		if err != nil {
			t.Fatalf("LossRateFor(%g): %v", rate, err)
		}
		if !almostEqual(got, p, 1e-6) {
			t.Errorf("round trip at p=%g gave %g", p, got)
		}
	}
}

func TestLossRateForWindowLimitedPlateau(t *testing.T) {
	pr := NewParams(0.25, 2.0, 8)
	ceiling := pr.Wm / pr.RTT
	p, err := LossRateFor(ceiling*0.999, pr)
	if err != nil {
		t.Fatalf("LossRateFor near ceiling: %v", err)
	}
	// On the plateau the solver returns the largest p still achieving
	// the target; that p must indeed achieve it.
	if got := SendRateFull(p, pr); got < ceiling*0.999*(1-1e-6) {
		t.Errorf("returned p=%g achieves only %g, want >= %g", p, got, ceiling*0.999)
	}
}

func TestLossRateForOutOfRange(t *testing.T) {
	pr := NewParams(0.25, 2.0, 8)
	if _, err := LossRateFor(pr.Wm/pr.RTT*10, pr); err == nil {
		t.Error("rate above Wm/RTT should be rejected")
	}
	if _, err := LossRateFor(-1, pr); err == nil {
		t.Error("negative rate should be rejected")
	}
	if _, err := LossRateFor(math.NaN(), pr); err == nil {
		t.Error("NaN rate should be rejected")
	}
	if _, err := LossRateFor(5, Params{}); err == nil {
		t.Error("invalid params should be rejected")
	}
}

func TestLossRateForZeroTargetIsCertainLoss(t *testing.T) {
	pr := NewParams(0.25, 2.0, 8)
	p, err := LossRateFor(0, pr)
	if err != nil || p != 1 {
		t.Errorf("LossRateFor(0) = %g, %v; want 1, nil", p, err)
	}
}

func TestFriendlyRateFinite(t *testing.T) {
	un := Params{RTT: 0.2, T0: 2, Wm: 0, B: 2}
	r := FriendlyRate(0, un)
	if math.IsInf(r, 0) || r <= 0 {
		t.Errorf("FriendlyRate(0) on unconstrained params = %g, want finite positive", r)
	}
	lim := NewParams(0.2, 2, 10)
	if got, want := FriendlyRate(0, lim), lim.Wm/lim.RTT; got != want {
		t.Errorf("FriendlyRate(0) window-limited = %g, want %g", got, want)
	}
	if got, want := FriendlyRate(0.05, lim), SendRateFull(0.05, lim); got != want {
		t.Errorf("FriendlyRate(0.05) = %g, want full model %g", got, want)
	}
}

func TestCurveShape(t *testing.T) {
	pr := NewParams(0.25, 2.0, 20)
	c := Curve(ModelFull, pr, 1e-4, 0.5, 50)
	if len(c) != 50 {
		t.Fatalf("len = %d, want 50", len(c))
	}
	if !almostEqual(c[0].P, 1e-4, 1e-9) || !almostEqual(c[49].P, 0.5, 1e-9) {
		t.Errorf("endpoints: %g .. %g", c[0].P, c[49].P)
	}
	for i := 1; i < len(c); i++ {
		if c[i].P <= c[i-1].P {
			t.Fatalf("P not increasing at %d", i)
		}
		if c[i].Rate > c[i-1].Rate*(1+1e-9) {
			t.Fatalf("full-model curve not non-increasing at %d: %g -> %g", i, c[i-1].Rate, c[i].Rate)
		}
	}
}

func TestCurvePanicsOnBadRange(t *testing.T) {
	pr := NewParams(0.25, 2.0, 20)
	for _, fn := range []func(){
		func() { Curve(ModelFull, pr, 0, 0.5, 10) },
		func() { Curve(ModelFull, pr, 0.5, 0.1, 10) },
		func() { Curve(ModelFull, pr, 0.1, 0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestQuickInverseConsistent(t *testing.T) {
	pr := NewParams(0.3, 2.5, 0)
	f := func(x float64) bool {
		p := genP(x)
		rate := SendRateFull(p, pr)
		back, err := LossRateFor(rate, pr)
		if err != nil {
			return false
		}
		return almostEqual(SendRateFull(back, pr), rate, 1e-6)
	}
	proptest.Check(t, f, 200)
}
