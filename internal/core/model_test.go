package core

import (
	"math"
	"testing"

	"pftk/internal/proptest"
)

// literalEW transcribes eq. (13) directly, as a check against the
// implementation's algebra.
func literalEW(p, b float64) float64 {
	return (2+b)/(3*b) + math.Sqrt(8*(1-p)/(3*b*p)+math.Pow((2+b)/(3*b), 2))
}

// literalEX transcribes eq. (15).
func literalEX(p, b float64) float64 {
	return (2+b)/6 + math.Sqrt(2*b*(1-p)/(3*p)+math.Pow((2+b)/6, 2))
}

// literalFP transcribes eq. (29).
func literalFP(p float64) float64 {
	return 1 + p + 2*p*p + 4*math.Pow(p, 3) + 8*math.Pow(p, 4) + 16*math.Pow(p, 5) + 32*math.Pow(p, 6)
}

// literalQHat transcribes eq. (24).
func literalQHat(p, w float64) float64 {
	num := (1 - math.Pow(1-p, 3)) * (1 + math.Pow(1-p, 3)*(1-math.Pow(1-p, w-3)))
	return math.Min(1, num/(1-math.Pow(1-p, w)))
}

// literalApprox transcribes eq. (33) without the Wm clamp.
func literalApprox(p, rtt, t0, b float64) float64 {
	return 1 / (rtt*math.Sqrt(2*b*p/3) + t0*math.Min(1, 3*math.Sqrt(3*b*p/8))*p*(1+32*p*p))
}

var testPs = []float64{1e-5, 1e-4, 1e-3, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99}

func almostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

func TestEWMatchesLiteralEquation13(t *testing.T) {
	for _, b := range []float64{1, 2, 3} {
		for _, p := range testPs {
			got, want := EW(p, b), literalEW(p, b)
			if !almostEqual(got, want, 1e-12) {
				t.Errorf("EW(%g, %g) = %g, literal eq.(13) = %g", p, b, got, want)
			}
		}
	}
}

func TestEXMatchesLiteralEquation15(t *testing.T) {
	for _, b := range []float64{1, 2, 3} {
		for _, p := range testPs {
			got, want := EX(p, b), literalEX(p, b)
			if !almostEqual(got, want, 1e-12) {
				t.Errorf("EX(%g, %g) = %g, literal eq.(15) = %g", p, b, got, want)
			}
		}
	}
}

func TestFPMatchesLiteralEquation29(t *testing.T) {
	for _, p := range testPs {
		got, want := FP(p), literalFP(p)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("FP(%g) = %g, literal eq.(29) = %g", p, got, want)
		}
	}
}

func TestFPBoundaries(t *testing.T) {
	if got := FP(0); got != 1 {
		t.Errorf("FP(0) = %g, want 1", got)
	}
	if got := FP(1); got != 64 {
		t.Errorf("FP(1) = %g, want 64 (1+1+2+4+8+16+32)", got)
	}
}

func TestQHatMatchesLiteralEquation24(t *testing.T) {
	for _, w := range []float64{3.5, 4, 6, 10, 25.7, 100} {
		for _, p := range testPs {
			got, want := QHat(p, w), literalQHat(p, w)
			if !almostEqual(got, want, 1e-12) {
				t.Errorf("QHat(%g, %g) = %g, literal eq.(24) = %g", p, w, got, want)
			}
		}
	}
}

// The closed form (24) must agree closely with the exact double summation
// (22)-(23). The paper derives (24) from (22) "after algebraic
// manipulations" that are not exact: the closed form drifts from the
// summation at small w combined with high p (observed up to ~7% at w=4,
// p=0.2). Characterize both regimes: within 2% for p <= 1%, and within
// 10% everywhere.
func TestQHatClosedFormEqualsExactSummation(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5, 8, 12, 20, 40, 64} {
		for _, p := range testPs {
			exact := QHatExact(p, w)
			closed := QHat(p, float64(w))
			tol := 0.10
			if p <= 0.01 {
				tol = 0.02
			}
			if !almostEqual(exact, closed, tol) {
				t.Errorf("w=%d p=%g: exact summation %g vs closed form %g exceeds %g%%",
					w, p, exact, closed, tol*100)
			}
		}
	}
}

func TestQHatSmallWindowIsOne(t *testing.T) {
	for _, w := range []float64{0.5, 1, 2, 3} {
		for _, p := range testPs {
			if got := QHat(p, w); got != 1 {
				t.Errorf("QHat(%g, %g) = %g, want 1 for w <= 3", p, w, got)
			}
		}
	}
}

func TestQHatSmallPLimitIsThreeOverW(t *testing.T) {
	// lim_{p->0} Q̂(w) = 3/w (shown in the paper by L'Hopital's rule).
	for _, w := range []float64{4, 8, 16, 50} {
		got := QHat(1e-9, w)
		want := 3 / w
		if !almostEqual(got, want, 1e-4) {
			t.Errorf("QHat(1e-9, %g) = %g, want ~3/w = %g", w, got, want)
		}
		if got0 := QHat(0, w); !almostEqual(got0, want, 1e-12) {
			t.Errorf("QHat(0, %g) = %g, want exactly 3/w = %g", w, got0, want)
		}
	}
}

func TestQHatApproxCloseToClosedForm(t *testing.T) {
	// The paper calls min(1, 3/w) "a very good approximation" of Q̂. The
	// approximation comes from the small-p limit, so check agreement in
	// the low-loss regime (it visibly diverges for p >~ 5%).
	for _, w := range []float64{4, 6, 10, 20, 40} {
		for _, p := range []float64{1e-4, 1e-3, 0.005, 0.01} {
			exact := QHat(p, w)
			approx := QHatApprox(w)
			if math.Abs(exact-approx) > 0.1 {
				t.Errorf("QHat(%g,%g)=%g vs approx %g: differ by more than 0.1", p, w, exact, approx)
			}
		}
	}
}

func TestEWSmallPAsymptote(t *testing.T) {
	// eq. (14): E[W] = sqrt(8/(3bp)) + o(1/sqrt(p)).
	for _, b := range []float64{1, 2} {
		p := 1e-7
		ratio := EW(p, b) / EWSmallP(p, b)
		if math.Abs(ratio-1) > 1e-2 {
			t.Errorf("b=%g: EW/EWSmallP = %g at p=%g, want ~1", b, ratio, p)
		}
	}
}

func TestEXSmallPAsymptote(t *testing.T) {
	for _, b := range []float64{1, 2} {
		p := 1e-7
		ratio := EX(p, b) / EXSmallP(p, b)
		if math.Abs(ratio-1) > 1e-2 {
			t.Errorf("b=%g: EX/EXSmallP = %g at p=%g, want ~1", b, ratio, p)
		}
	}
}

func TestEWEXRelation(t *testing.T) {
	// eq. (11): E[W] = (2/b)·E[X].
	for _, b := range []float64{1, 2, 4} {
		for _, p := range testPs {
			w, x := EW(p, b), EX(p, b)
			if !almostEqual(w, 2/b*x, 1e-12) {
				t.Errorf("b=%g p=%g: E[W]=%g but (2/b)E[X]=%g", b, p, w, 2/b*x)
			}
		}
	}
}

func TestEAIsRTTTimesXPlusOne(t *testing.T) {
	for _, p := range testPs {
		if got, want := EA(p, 0.2, 2), 0.2*(EX(p, 2)+1); !almostEqual(got, want, 1e-12) {
			t.Errorf("EA(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestER(t *testing.T) {
	if got := ER(0); got != 1 {
		t.Errorf("ER(0) = %g, want 1", got)
	}
	if got := ER(0.5); got != 2 {
		t.Errorf("ER(0.5) = %g, want 2", got)
	}
	if got := ER(1); !math.IsInf(got, 1) {
		t.Errorf("ER(1) = %g, want +Inf", got)
	}
}

func TestEZTO(t *testing.T) {
	// At p=0 a timeout sequence is a single timeout: E[Z^TO] = T0.
	if got := EZTO(0, 3.2); got != 3.2 {
		t.Errorf("EZTO(0, 3.2) = %g, want 3.2", got)
	}
	for _, p := range testPs[:10] {
		want := 3.2 * FP(p) / (1 - p)
		if got := EZTO(p, 3.2); !almostEqual(got, want, 1e-12) {
			t.Errorf("EZTO(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestTimeoutSequenceDuration(t *testing.T) {
	t0 := 1.5
	cases := []struct {
		k    int
		want float64
	}{
		{0, 0}, {-3, 0},
		{1, 1 * t0},   // T0
		{2, 3 * t0},   // T0 + 2T0
		{3, 7 * t0},   // +4T0
		{6, 63 * t0},  // 1+2+4+8+16+32
		{7, 127 * t0}, // 63 + 64
		{8, 191 * t0}, // 63 + 128
	}
	for _, c := range cases {
		if got := TimeoutSequenceDuration(c.k, t0); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("L_%d = %g, want %g", c.k, got, c.want)
		}
	}
}

func TestAProbNormalizes(t *testing.T) {
	// Σ_{k=0}^{w-1} A(w,k) = 1: the first loss is at position k+1 for
	// exactly one k in 0..w-1, given the round has a loss.
	for _, w := range []int{1, 2, 5, 16, 64} {
		for _, p := range testPs {
			sum := 0.0
			for k := 0; k < w; k++ {
				sum += AProb(p, w, k)
			}
			if !almostEqual(sum, 1, 1e-9) {
				t.Errorf("w=%d p=%g: ΣA(w,k) = %g, want 1", w, p, sum)
			}
		}
	}
}

func TestCProbNormalizes(t *testing.T) {
	// Σ_{m=0}^{n} C(n,m) = 1.
	for _, n := range []int{1, 2, 5, 16} {
		for _, p := range testPs {
			sum := 0.0
			for m := 0; m <= n; m++ {
				sum += CProb(p, n, m)
			}
			if !almostEqual(sum, 1, 1e-9) {
				t.Errorf("n=%d p=%g: ΣC(n,m) = %g, want 1", n, p, sum)
			}
		}
	}
}

func TestSendRateFullBoundaries(t *testing.T) {
	pr := NewParams(0.2, 2.0, 12)
	if got, want := SendRateFull(0, pr), 12/0.2; got != want {
		t.Errorf("B(0) = %g, want Wm/RTT = %g", got, want)
	}
	if got := SendRateFull(1, pr); got != 0 {
		t.Errorf("B(1) = %g, want 0", got)
	}
	un := pr
	un.Wm = 0
	if got := SendRateFull(0, un); !math.IsInf(got, 1) {
		t.Errorf("unconstrained B(0) = %g, want +Inf", got)
	}
}

func TestSendRateFullMatchesHandComputation(t *testing.T) {
	// Hand-evaluate eq. (32) at one unconstrained point.
	p, rtt, t0, b := 0.02, 0.25, 2.0, 2.0
	w := literalEW(p, b)
	q := literalQHat(p, w)
	num := (1-p)/p + w + q/(1-p)
	den := rtt*(b/2*w+1) + q*t0*literalFP(p)/(1-p)
	want := num / den
	got := SendRateFull(p, Params{RTT: rtt, T0: t0, Wm: 0, B: 2})
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("SendRateFull = %g, hand computation = %g", got, want)
	}
}

func TestSendRateFullWindowLimitedBranch(t *testing.T) {
	// Pick p small enough that E[Wu] > Wm and check the second branch of
	// eq. (32) verbatim.
	p, rtt, t0, wm, b := 0.001, 0.25, 2.0, 8.0, 2.0
	if literalEW(p, b) <= wm {
		t.Fatalf("test setup: E[Wu]=%g must exceed Wm=%g", literalEW(p, b), wm)
	}
	q := literalQHat(p, wm)
	num := (1-p)/p + wm + q/(1-p)
	den := rtt*(b/8*wm+(1-p)/(p*wm)+2) + q*t0*literalFP(p)/(1-p)
	want := num / den
	got := SendRateFull(p, Params{RTT: rtt, T0: t0, Wm: wm, B: 2})
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("window-limited SendRateFull = %g, hand computation = %g", got, want)
	}
}

func TestSendRateApproxMatchesLiteralEquation33(t *testing.T) {
	pr := Params{RTT: 0.25, T0: 2.0, Wm: 0, B: 2}
	for _, p := range testPs {
		got := SendRateApprox(p, pr)
		want := literalApprox(p, pr.RTT, pr.T0, 2)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("approx(%g) = %g, literal = %g", p, got, want)
		}
	}
	lim := Params{RTT: 0.25, T0: 2.0, Wm: 6, B: 2}
	for _, p := range testPs {
		got := SendRateApprox(p, lim)
		want := math.Min(6/0.25, literalApprox(p, 0.25, 2.0, 2))
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("clamped approx(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestApproxCloseToFull(t *testing.T) {
	// Section III: "(33) is indeed a very good approximation of (32)".
	// Verify agreement within 2x over the validated loss range and much
	// tighter in the moderate regime.
	pr := NewParams(0.25, 2.0, 33)
	for _, p := range []float64{1e-4, 1e-3, 0.01, 0.03, 0.05, 0.1} {
		full := SendRateFull(p, pr)
		approx := SendRateApprox(p, pr)
		ratio := approx / full
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("p=%g: approx/full = %g, want within [0.5, 2]", p, ratio)
		}
	}
	// At very high loss (p >= 0.2) the approximation undershoots the full
	// model but must stay within 3x.
	for _, p := range []float64{0.2, 0.3, 0.5} {
		ratio := SendRateApprox(p, pr) / SendRateFull(p, pr)
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("p=%g: approx/full = %g, want within [1/3, 3]", p, ratio)
		}
	}
	for _, p := range []float64{0.005, 0.01, 0.02, 0.05} {
		full := SendRateFull(p, pr)
		approx := SendRateApprox(p, pr)
		if r := approx / full; r < 0.7 || r > 1.5 {
			t.Errorf("p=%g: approx/full = %g, want within [0.7, 1.5] in moderate regime", p, r)
		}
	}
}

func TestTDOnlyOverestimatesAtHighLoss(t *testing.T) {
	// The paper's central empirical point: for p above ~5% the TD-only
	// model predicts much higher send rates than the full model.
	pr := NewParams(0.25, 2.0, 0)
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3} {
		td := SendRateTDOnly(p, pr.RTT, 2)
		full := SendRateFull(p, pr)
		if td <= full {
			t.Errorf("p=%g: TD-only %g should exceed full model %g", p, td, full)
		}
		if p >= 0.1 && td < 2*full {
			t.Errorf("p=%g: TD-only %g should be >= 2x full model %g at high loss", p, td, full)
		}
	}
}

func TestTDOnlyIgnoresWindowLimit(t *testing.T) {
	// Fig. 7(a) commentary: TD-only overestimates at low p because it
	// does not account for the receiver window.
	pr := NewParams(0.243, 2.495, 6) // manic->baskerville parameters
	p := 0.001
	td := SendRateTDOnly(p, pr.RTT, 2)
	full := SendRateFull(p, pr)
	if full > pr.Wm/pr.RTT*1.0001 {
		t.Errorf("full model %g must respect Wm/RTT = %g", full, pr.Wm/pr.RTT)
	}
	if td <= pr.Wm/pr.RTT {
		t.Errorf("TD-only %g should exceed the window-limited ceiling %g at p=%g", td, pr.Wm/pr.RTT, p)
	}
}

func TestSendRateTDOnlyExactVsSqrtForm(t *testing.T) {
	// eq. (20): the exact TD model tends to the sqrt form as p -> 0.
	for _, b := range []float64{1, 2} {
		p := 1e-6
		exact := SendRateTDOnlyExact(p, 0.2, b)
		approx := SendRateTDOnly(p, 0.2, b)
		if math.Abs(exact/approx-1) > 0.01 {
			t.Errorf("b=%g: exact/sqrt = %g at p=%g, want ~1", b, exact/approx, p)
		}
	}
}

func TestThroughputBelowSendRate(t *testing.T) {
	// Fig. 13: throughput <= send rate for all p (the receiver never
	// gets more than was sent).
	pr := NewParams(0.47, 3.2, 12) // Fig. 13 parameters
	for _, p := range testPs {
		tput := Throughput(p, pr)
		rate := SendRateFull(p, pr)
		if tput > rate*(1+1e-9) {
			t.Errorf("p=%g: throughput %g exceeds send rate %g", p, tput, rate)
		}
	}
}

func TestThroughputGapGrowsWithLoss(t *testing.T) {
	pr := NewParams(0.47, 3.2, 12)
	prev := 0.0
	for _, p := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		gap := 1 - Throughput(p, pr)/SendRateFull(p, pr)
		if gap < prev-1e-9 {
			t.Errorf("p=%g: relative throughput gap %g decreased (prev %g)", p, gap, prev)
		}
		prev = gap
	}
}

func TestThroughputMatchesPrintedB2Form(t *testing.T) {
	// eq. (37)/(38) are printed for b=2; check the generic code reduces
	// to the printed form.
	pr := Params{RTT: 0.47, T0: 3.2, Wm: 12, B: 2}
	for _, p := range []float64{0.001, 0.01, 0.05, 0.2} {
		wp := 2.0/3.0 + math.Sqrt(4*(1-p)/(3*p)+4.0/9.0)
		var want float64
		if wp < pr.Wm {
			q := literalQHat(p, wp)
			want = ((1-p)/p + wp/2 + q) / (pr.RTT*(wp+1) + q*literalFP(p)*pr.T0/(1-p))
		} else {
			q := literalQHat(p, pr.Wm)
			want = ((1-p)/p + pr.Wm/2 + q) /
				(pr.RTT*(pr.Wm/4+(1-p)/(p*pr.Wm)+2) + q*literalFP(p)*pr.T0/(1-p))
		}
		if got := Throughput(p, pr); !almostEqual(got, want, 1e-12) {
			t.Errorf("Throughput(%g) = %g, printed eq.(37) = %g", p, got, want)
		}
	}
}

func TestModelRateDispatch(t *testing.T) {
	pr := NewParams(0.2, 2.0, 20)
	p := 0.03
	cases := []struct {
		m    Model
		want float64
	}{
		{ModelFull, SendRateFull(p, pr)},
		{ModelApprox, SendRateApprox(p, pr)},
		{ModelTDOnly, SendRateTDOnly(p, pr.RTT, 2)},
		{ModelThroughput, Throughput(p, pr)},
		{ModelNoTimeout, SendRateNoTimeout(p, pr)},
	}
	for _, c := range cases {
		if got := c.m.Rate(p, pr); got != c.want {
			t.Errorf("%v.Rate = %g, want %g", c.m, got, c.want)
		}
	}
	if !math.IsNaN(Model(99).Rate(p, pr)) {
		t.Error("unknown model should return NaN")
	}
}

func TestModelString(t *testing.T) {
	names := map[Model]string{
		ModelFull: "full", ModelApprox: "approximate", ModelTDOnly: "TD only",
		ModelThroughput: "throughput", ModelNoTimeout: "no-timeout", Model(42): "Model(42)",
	}
	for m, want := range names {
		if got := m.String(); got != want {
			t.Errorf("Model(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := NewParams(0.2, 2.0, 12)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{RTT: 0, T0: 1, Wm: 1},
		{RTT: -1, T0: 1, Wm: 1},
		{RTT: 1, T0: 0, Wm: 1},
		{RTT: 1, T0: -2, Wm: 1},
		{RTT: math.NaN(), T0: 1, Wm: 1},
		{RTT: 1, T0: 1, Wm: math.NaN()},
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("case %d: invalid params %+v accepted", i, pr)
		}
	}
}

func TestParamsString(t *testing.T) {
	s := NewParams(0.2, 2, 12).String()
	if s == "" {
		t.Fatal("empty String()")
	}
	un := Params{RTT: 0.2, T0: 2, Wm: 0, B: 2}
	if got := un.String(); got == s {
		t.Errorf("unlimited and limited params should print differently: %q", got)
	}
}

func TestAckRatioDefault(t *testing.T) {
	if got := (Params{}).ackRatio(); got != DefaultB {
		t.Errorf("zero B should default to %d, got %g", DefaultB, got)
	}
	if got := (Params{B: 1}).ackRatio(); got != 1 {
		t.Errorf("B=1 should stay 1, got %g", got)
	}
}

func TestClampP(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := clampP(c.in); got != c.want {
			t.Errorf("clampP(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// --- property-based tests (testing/quick) ---

// genP maps an arbitrary float to a valid loss rate in (1e-6, 0.999).
func genP(x float64) float64 {
	x = math.Abs(x)
	x = x - math.Floor(x) // frac in [0,1)
	return 1e-6 + x*(0.999-1e-6)
}

func TestQuickSendRateFullPositiveAndFinite(t *testing.T) {
	pr := NewParams(0.25, 2.0, 40)
	f := func(x float64) bool {
		p := genP(x)
		r := SendRateFull(p, pr)
		return r > 0 && !math.IsInf(r, 0) && !math.IsNaN(r)
	}
	proptest.Check(t, f, 0)
}

func TestQuickSendRateFullMonotoneInP(t *testing.T) {
	pr := NewParams(0.25, 2.0, 0)
	f := func(x, y float64) bool {
		p1, p2 := genP(x), genP(y)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return SendRateFull(p1, pr) >= SendRateFull(p2, pr)*(1-1e-9)
	}
	proptest.Check(t, f, 500)
}

func TestQuickSendRateRespectsWindowCeiling(t *testing.T) {
	f := func(x float64, wmRaw uint8) bool {
		p := genP(x)
		wm := float64(wmRaw%60) + 4
		pr := NewParams(0.25, 2.0, wm)
		return SendRateFull(p, pr) <= wm/pr.RTT*(1+1e-9)
	}
	proptest.Check(t, f, 500)
}

func TestQuickSendRateDecreasesWithRTT(t *testing.T) {
	f := func(x, y float64) bool {
		p := genP(x)
		r1 := 0.05 + math.Abs(y-math.Floor(y))
		r2 := r1 * 2
		b1 := SendRateFull(p, NewParams(r1, 2.0, 0))
		b2 := SendRateFull(p, NewParams(r2, 2.0, 0))
		return b1 >= b2*(1-1e-9)
	}
	proptest.Check(t, f, 300)
}

func TestQuickQHatInUnitInterval(t *testing.T) {
	f := func(x float64, wRaw uint8) bool {
		p := genP(x)
		w := float64(wRaw) + 1
		q := QHat(p, w)
		return q >= 0 && q <= 1
	}
	proptest.Check(t, f, 0)
}

func TestQuickQHatDecreasingInW(t *testing.T) {
	f := func(x float64, aRaw, bRaw uint8) bool {
		p := genP(x)
		w1 := float64(aRaw%60) + 4
		w2 := w1 + float64(bRaw%20) + 1
		return QHat(p, w1) >= QHat(p, w2)-1e-12
	}
	proptest.Check(t, f, 500)
}

func TestQuickThroughputAtMostSendRate(t *testing.T) {
	f := func(x float64, wmRaw uint8) bool {
		p := genP(x)
		pr := NewParams(0.3, 2.5, float64(wmRaw%50)+5)
		return Throughput(p, pr) <= SendRateFull(p, pr)*(1+1e-9)
	}
	proptest.Check(t, f, 500)
}

func TestQuickEWDecreasingInP(t *testing.T) {
	f := func(x, y float64) bool {
		p1, p2 := genP(x), genP(y)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return EW(p1, 2) >= EW(p2, 2)-1e-12
	}
	proptest.Check(t, f, 0)
}
