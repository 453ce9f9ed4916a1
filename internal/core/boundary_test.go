package core

import (
	"math"
	"testing"
)

// Domain-boundary coverage for the model entry points: the extremes
// p→0⁺, p=1 and RTT→0⁺ where naive implementations of Eq. (30)-style
// formulas silently produce NaN or Inf. The entry points clamp and stay
// deterministic.

func entryPoints() map[string]func(p float64, pr Params) float64 {
	return map[string]func(p float64, pr Params) float64{
		"SendRateFull":   SendRateFull,
		"SendRateApprox": SendRateApprox,
		"Throughput":     Throughput,
		"ShortFlowTime":  func(p float64, pr Params) float64 { return ShortFlowTime(1000, p, pr) },
	}
}

func TestEntryPointsTinyP(t *testing.T) {
	lim := NewParams(0.2, 2.0, 12)
	un := Params{RTT: 0.2, T0: 2, Wm: 0, B: 2}
	for _, p := range []float64{1e-300, 1e-100, 1e-12} {
		for name, fn := range entryPoints() {
			// Window-limited: every quantity must be finite and
			// non-negative all the way down.
			got := fn(p, lim)
			if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
				t.Errorf("%s(p=%g, limited) = %g, want finite non-negative", name, p, got)
			}
		}
		// Rate models must flatten at the receiver-window ceiling.
		if got, ceil := SendRateFull(p, lim), lim.Wm/lim.RTT; math.Abs(got-ceil)/ceil > 1e-6 {
			t.Errorf("SendRateFull(p=%g) = %g, want ~ceiling %g", p, got, ceil)
		}
		// Unconstrained: diverging is the documented behaviour, NaN is
		// not.
		for name, fn := range entryPoints() {
			if got := fn(p, un); math.IsNaN(got) || got < 0 {
				t.Errorf("%s(p=%g, unconstrained) = %g, want non-NaN non-negative", name, p, got)
			}
		}
	}
}

func TestEntryPointsPOne(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	if got := SendRateFull(1, pr); got != 0 {
		t.Errorf("SendRateFull(1) = %g, want 0", got)
	}
	if got := Throughput(1, pr); got != 0 {
		t.Errorf("Throughput(1) = %g, want 0", got)
	}
	if got := SendRateApprox(1, pr); math.IsNaN(got) || got < 0 {
		t.Errorf("SendRateApprox(1) = %g, want finite non-negative", got)
	}
	// Just below 1 everything is still finite.
	for name, fn := range entryPoints() {
		if got := fn(1-1e-12, pr); math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Errorf("%s(1-1e-12) = %g, want finite non-negative", name, got)
		}
	}
}

func TestEntryPointsTinyRTT(t *testing.T) {
	// RTT → 0⁺ passes Validate (strictly positive) and must not produce
	// NaN: the timeout term keeps the denominator alive.
	for _, rtt := range []float64{1e-300, 1e-12} {
		pr := Params{RTT: rtt, T0: 2, Wm: 12, B: 2}
		if err := pr.Validate(); err != nil {
			t.Fatalf("Validate(RTT=%g) = %v, want nil", rtt, err)
		}
		for name, fn := range entryPoints() {
			if got := fn(0.01, pr); math.IsNaN(got) || got < 0 {
				t.Errorf("%s(RTT=%g) = %g, want non-NaN non-negative", name, rtt, got)
			}
		}
	}
	// RTT = 0 and below remain rejected by Validate.
	if (Params{RTT: 0, T0: 2, Wm: 12}).Validate() == nil {
		t.Error("Validate must reject RTT = 0")
	}
}

func TestEntryPointsNonFinitePDeterministic(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	// The entry points clamp NaN and negative p to 0, +Inf p to 1 —
	// each call must agree exactly with its clamped counterpart.
	for name, fn := range entryPoints() {
		if got, want := fn(math.NaN(), pr), fn(0, pr); got != want {
			t.Errorf("%s(NaN) = %g, want clamp to %s(0) = %g", name, got, name, want)
		}
		if got, want := fn(-0.5, pr), fn(0, pr); got != want {
			t.Errorf("%s(-0.5) = %g, want clamp to %s(0) = %g", name, got, name, want)
		}
		if got, want := fn(math.Inf(1), pr), fn(1, pr); got != want {
			t.Errorf("%s(+Inf) = %g, want clamp to %s(1) = %g", name, got, name, want)
		}
	}
}

func TestInverseBoundaries(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	// Target 0 is p = 1 by definition.
	if p, err := LossRateFor(0, pr); err != nil || p != 1 {
		t.Errorf("LossRateFor(0) = %g, %v; want 1, nil", p, err)
	}
	// NaN and negative targets are rejected, not absorbed.
	if _, err := LossRateFor(math.NaN(), pr); err == nil {
		t.Error("LossRateFor(NaN) must error")
	}
	if _, err := LossRateFor(-1, pr); err == nil {
		t.Error("LossRateFor(-1) must error")
	}
	// Round trip near the ceiling: the returned p re-achieves the rate.
	target := 0.95 * pr.Wm / pr.RTT
	p, err := LossRateFor(target, pr)
	if err != nil {
		t.Fatalf("LossRateFor(%g): %v", target, err)
	}
	if got := SendRateFull(p, pr); math.Abs(got-target)/target > 1e-3 {
		t.Errorf("round trip: B(%g) = %g, want %g", p, got, target)
	}
}
