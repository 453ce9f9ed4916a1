package markov

import (
	"fmt"
	"math"
	"testing"
	"time"

	"pftk/internal/core"
)

func fig12Config() Config {
	// Fig. 12 parameters: RTT = 0.47 s, T0 = 3.2 s, Wm = 12.
	return Config{RTT: 0.47, T0: 3.2, Wm: 12}
}

func TestConfigValidate(t *testing.T) {
	good := fig12Config()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{RTT: 0, T0: 1, Wm: 10},
		{RTT: 1, T0: 0, Wm: 10},
		{RTT: 1, T0: 1, Wm: 0},
		{RTT: math.NaN(), T0: 1, Wm: 10},
		{RTT: math.Inf(1), T0: 1, Wm: 10},
		{RTT: 1, T0: math.Inf(1), Wm: 10},
		{RTT: 1, T0: 1, Wm: MaxStates/2 + 1},
		{RTT: 1, T0: 1, Wm: MaxStates/4 + 1, B: 4},
		{RTT: 1, T0: 1, Wm: math.MaxInt, B: 3},
		{RTT: 1, T0: 1, Wm: 10, MaxBackoff: maxBackoff + 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	for _, c := range []Config{
		{RTT: 1, T0: 1, Wm: MaxStates / 2},
		{RTT: 1, T0: 1, Wm: MaxStates, B: 1},
		{RTT: 1, T0: 1, Wm: 10, MaxBackoff: maxBackoff},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config at the cap rejected: %v", err)
		}
	}
}

func TestNewRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.5, math.NaN()} {
		if _, err := New(p, fig12Config()); err == nil {
			t.Errorf("p=%v accepted", p)
		}
	}
	if _, err := New(0.05, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestStationaryDistributionIsProbability(t *testing.T) {
	ch, err := New(0.05, fig12Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, iters := powerIterate(ch); iters == 0 {
		t.Error("power iteration converged in zero iterations (suspicious)")
	}
	pi := ch.Stationary()
	sum := 0.0
	for i, v := range pi {
		if v < -1e-15 {
			t.Errorf("pi[%d] = %g negative", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary sums to %g", sum)
	}
}

func TestTransitionRowsSumToOne(t *testing.T) {
	ch, err := New(0.07, fig12Config())
	if err != nil {
		t.Fatal(err)
	}
	o := assemble(ch)
	for i, ts := range o.next {
		sum := 0.0
		for _, tr := range ts {
			sum += tr.prob
			if tr.to < 0 || tr.to >= ch.NumStates() {
				t.Fatalf("state %d: transition to out-of-range %d", i, tr.to)
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("state %d: outgoing probability %g", i, sum)
		}
	}
}

func TestSendRateMatchesClosedForm(t *testing.T) {
	// Fig. 12: the numerically-solved Markov model and eq. (32) nearly
	// coincide. Require agreement within 30% over the validated loss
	// range (the two models make slightly different per-round
	// accounting choices, as did the paper's pair).
	cfg := fig12Config()
	pr := core.Params{RTT: cfg.RTT, T0: cfg.T0, Wm: 12, B: 2}
	for _, p := range []float64{0.005, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3} {
		got, err := SendRate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := core.SendRateFull(p, pr)
		ratio := got / want
		t.Logf("p=%.3f: markov=%.2f closed=%.2f ratio=%.2f", p, got, want, ratio)
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("p=%g: markov %g vs closed form %g (ratio %.2f)", p, got, want, ratio)
		}
	}
}

func TestSendRateMonotoneInP(t *testing.T) {
	cfg := fig12Config()
	prev := math.Inf(1)
	for _, p := range []float64{0.01, 0.03, 0.07, 0.15, 0.3, 0.5} {
		r, err := SendRate(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev*(1+1e-9) {
			t.Errorf("send rate not monotone at p=%g: %g > %g", p, r, prev)
		}
		prev = r
	}
}

func TestSendRateRespectsWindowCeiling(t *testing.T) {
	cfg := fig12Config()
	r, err := SendRate(0.0005, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ceiling := float64(cfg.Wm) / cfg.RTT
	if r > ceiling*1.001 {
		t.Errorf("rate %g above Wm/RTT = %g", r, ceiling)
	}
	if r < 0.7*ceiling {
		t.Errorf("rate %g at tiny loss should approach the ceiling %g", r, ceiling)
	}
}

func TestTimeoutFractionGrowsWithLoss(t *testing.T) {
	cfg := fig12Config()
	prev := -1.0
	for _, p := range []float64{0.01, 0.05, 0.15, 0.4} {
		ch, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := ch.TimeoutFraction()
		if f < 0 || f > 1 {
			t.Fatalf("timeout fraction %g out of range", f)
		}
		if f < prev {
			t.Errorf("timeout fraction not increasing at p=%g: %g < %g", p, f, prev)
		}
		prev = f
	}
	if prev < 0.5 {
		t.Errorf("at p=0.4 the chain should spend most time in timeout, got %g", prev)
	}
}

func TestMeanWindowShrinksWithLoss(t *testing.T) {
	cfg := fig12Config()
	ch1, _ := New(0.005, cfg)
	ch2, _ := New(0.2, cfg)
	w1, w2 := ch1.MeanWindow(), ch2.MeanWindow()
	if w1 <= w2 {
		t.Errorf("mean window should shrink with loss: %g vs %g", w1, w2)
	}
	if w1 > float64(cfg.Wm) || w2 < 1 {
		t.Errorf("mean windows out of range: %g, %g", w1, w2)
	}
}

func TestMeanWindowTracksEW(t *testing.T) {
	// E[W] of eq. (13) is the window at the *end* of a TDP — the
	// sawtooth peak. The chain's MeanWindow is a time average over the
	// whole evolution including timeout dwell (window 1), so it must lie
	// clearly below E[W] but scale with it: within [0.3, 1.0]·E[W] in
	// the moderate-loss regime.
	cfg := Config{RTT: 0.2, T0: 1.0, Wm: 64}
	for _, p := range []float64{0.02, 0.05} {
		ch, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := ch.MeanWindow()
		want := core.EW(p, 2)
		if r := got / want; r < 0.3 || r > 1.0 {
			t.Errorf("p=%g: mean window %g vs E[W] %g (ratio %.2f)", p, got, want, r)
		}
	}
}

func TestBackoffCapRespected(t *testing.T) {
	ch, err := New(0.3, Config{RTT: 0.2, T0: 1.0, Wm: 8, MaxBackoff: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The last timeout state must have max wait 2^3 * T0 = 8.
	o := assemble(ch)
	last := o.stateTO(ch.cfg.MaxBackoff + 1)
	if got := o.time[last]; got != 8 {
		t.Errorf("capped timeout wait = %g, want 8", got)
	}
	if got := ch.wait(ch.cfg.MaxBackoff + 1); got != 8 {
		t.Errorf("solver's capped timeout wait = %g, want 8", got)
	}
	// Mapping beyond the cap folds back to the last state.
	if o.stateTO(99) != last {
		t.Error("over-cap stage should fold to the capped state")
	}
}

func TestNumStates(t *testing.T) {
	ch, err := New(0.05, Config{RTT: 0.2, T0: 1, Wm: 10})
	if err != nil {
		t.Fatal(err)
	}
	// 10 windows x 2 credits + 7 timeout stages.
	if got := ch.NumStates(); got != 27 {
		t.Errorf("NumStates = %d, want 27", got)
	}
}

func TestLossMixTracksQHat(t *testing.T) {
	// The chain's timeout fraction should track Q̂ evaluated near the
	// chain's own operating window, growing toward 1 with loss.
	cfg := fig12Config()
	prev := 0.0
	for _, p := range []float64{0.005, 0.02, 0.08, 0.3} {
		ch, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mix := ch.LossMix()
		if mix < 0 || mix > 1 {
			t.Fatalf("p=%g: mix %g out of range", p, mix)
		}
		if mix < prev-1e-9 {
			t.Errorf("p=%g: timeout mix %g decreased (prev %g)", p, mix, prev)
		}
		prev = mix
		// Compare against Q̂ at the chain's mean window: same order of
		// magnitude, same trend.
		q := core.QHat(p, ch.MeanWindow())
		if mix < q/3 || mix > math.Min(3*q, 1) {
			t.Errorf("p=%g: chain mix %g vs Q̂(meanW)=%g diverge", p, mix, q)
		}
	}
	if prev < 0.8 {
		t.Errorf("at p=0.3 the mix should be mostly timeouts, got %g", prev)
	}
}

func TestSolveDirectMatchesPowerIteration(t *testing.T) {
	// Two independent oracles must agree on the stationary distribution
	// and the derived send rate, and the exact solve with both.
	for _, p := range []float64{0.005, 0.05, 0.3} {
		ch, err := New(p, fig12Config())
		if err != nil {
			t.Fatal(err)
		}
		piI, _ := powerIterate(ch)
		rateIter := rateOf(ch, piI)
		piD, err := solveDirect(ch)
		if err != nil {
			t.Fatalf("p=%g: direct solve: %v", p, err)
		}
		rateDirect := rateOf(ch, piD)

		var l1 float64
		for i := range piI {
			l1 += math.Abs(piI[i] - piD[i])
		}
		if l1 > 1e-9 {
			t.Errorf("p=%g: solvers disagree, L1 distance %g", p, l1)
		}
		if math.Abs(rateIter-rateDirect)/rateDirect > 1e-9 {
			t.Errorf("p=%g: rates disagree: %g vs %g", p, rateIter, rateDirect)
		}
		// The direct solution must be a proper distribution.
		sum := 0.0
		for _, v := range piD {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("p=%g: direct stationary sums to %g", p, sum)
		}
		if got := ch.SendRate(); math.Abs(got-rateDirect)/rateDirect > 1e-10 {
			t.Errorf("p=%g: exact solve %g vs direct %g", p, got, rateDirect)
		}
	}
}

// checkDistribution fails the test unless the chain's stationary vector
// is finite, non-negative and sums to 1, and its derived rates are
// finite.
func checkDistribution(t *testing.T, name string, ch *Chain) {
	t.Helper()
	sum := 0.0
	for i, v := range ch.Stationary() {
		if !(v >= 0) || math.IsInf(v, 0) {
			t.Fatalf("%s: pi[%d] = %g", name, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("%s: stationary sums to 1%+g", name, sum-1)
	}
	for _, v := range []float64{ch.SendRate(), ch.TimeoutFraction(), ch.MeanWindow(), ch.LossMix()} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s: derived quantity %g", name, v)
		}
	}
}

func TestSolveMatchesOraclesOnGrid(t *testing.T) {
	// The exact solve against both oracles over p ∈ [1e-4, 0.99],
	// Wm ∈ 1..256, b ∈ 1..4 and MaxBackoff ∈ 1..6. Every point gets the
	// exact solve, its distribution check and the monotonicity check;
	// the oracles, dense and O(n²)–O(n³), run on one MaxBackoff per
	// point and on chains of at most 300 states.
	ps := []float64{1e-4, 3e-4, 1e-3, 0.003, 0.01, 0.03, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99}
	wms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 31, 32, 33, 64, 100, 128, 255, 256}
	var worstDirect, worstPower float64
	var nDirect, nPower, skipped int
	point := 0
	for _, wm := range wms {
		for b := 1; b <= 4; b++ {
			for mb := 1; mb <= 6; mb++ {
				cfg := Config{RTT: 0.2, T0: 1.5, Wm: wm, B: b, MaxBackoff: mb}
				prev := math.Inf(1)
				for _, p := range ps {
					point++
					name := fmt.Sprintf("p=%g Wm=%d b=%d MaxBackoff=%d", p, wm, b, mb)
					ch, err := New(p, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkDistribution(t, name, ch)
					got := ch.SendRate()
					if got > prev*(1+1e-12) {
						t.Errorf("%s: send rate %g rose above %g at the previous p", name, got, prev)
					}
					prev = got
					if ch.NumStates() > 300 || point%6 != mb-1 {
						continue
					}
					piD, err := solveDirect(ch)
					if err != nil {
						t.Fatalf("%s: direct solve: %v", name, err)
					}
					d := math.Abs(got-rateOf(ch, piD)) / rateOf(ch, piD)
					if d > 1e-10 {
						t.Errorf("%s: exact %g vs direct %g (rel %g)", name, got, rateOf(ch, piD), d)
					}
					worstDirect = math.Max(worstDirect, d)
					nDirect++
					piP, iters := powerIterate(ch)
					if iters == powerMaxIter {
						skipped++
						continue
					}
					d = math.Abs(got-rateOf(ch, piP)) / rateOf(ch, piP)
					if d > 1e-9 {
						t.Errorf("%s: exact %g vs power iteration %g (rel %g, %d iterations)", name, got, rateOf(ch, piP), d, iters)
					}
					worstPower = math.Max(worstPower, d)
					nPower++
				}
			}
		}
	}
	t.Logf("%d points; vs direct: %d, worst rel %.2g; vs power iteration: %d, worst rel %.2g (%d did not converge)",
		point, nDirect, worstDirect, nPower, worstPower, skipped)
}

func TestSolveUnderflowCorner(t *testing.T) {
	// At p = 0.99 a round of w packets is loss-free with probability
	// 0.01^w, which underflows for large w: the windows above hold no
	// mass in floating point, and the solve must say so instead of
	// dividing by zero.
	for _, cfg := range []Config{
		{RTT: 0.2, T0: 1, Wm: 1000},
		{RTT: 0.2, T0: 1, Wm: 1000, B: 4},
		{RTT: 0.2, T0: 1, Wm: MaxStates, B: 1},
	} {
		for _, p := range []float64{0.5, 0.9, 0.99, 1 - 1e-12} {
			ch, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkDistribution(t, fmt.Sprintf("p=%g Wm=%d b=%d", p, cfg.Wm, cfg.B), ch)
		}
	}
	// The mass sits almost entirely in window 1 and the backoff stages.
	ch, err := New(0.99, Config{RTT: 0.2, T0: 1, Wm: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if w := ch.MeanWindow(); w < 1 || w > 1.01 {
		t.Errorf("mean window %g at p=0.99, want about 1", w)
	}
}

func TestSolveAtStateCap(t *testing.T) {
	// A chain at the state cap solves in one O(n) pass; its distribution
	// must stay a proper one at low loss (mass at the top) and high loss
	// (mass at the bottom).
	for _, b := range []int{1, 2, 4} {
		for _, p := range []float64{1e-6, 1e-3, 0.3} {
			cfg := Config{RTT: 0.2, T0: 1, Wm: MaxStates / b, B: b}
			start := time.Now()
			ch, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			name := fmt.Sprintf("p=%g Wm=%d b=%d", p, cfg.Wm, b)
			checkDistribution(t, name, ch)
			t.Logf("%s: solved in %v", name, elapsed)
		}
	}
}

func TestSendRateAllocs(t *testing.T) {
	cfg := Config{RTT: 0.2, T0: 2, Wm: 48}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := SendRate(0.03, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("SendRate allocates %v times per call, want at most 2", allocs)
	}
}

// The oracles below assemble the chain state by state — transition
// lists and per-state rewards — and solve it generically, by power
// iteration and by Gaussian elimination. They share no code with the
// cut-equation solve they check.

type transition struct {
	to   int
	prob float64
}

// assembled is the chain as explicit transition lists and per-state
// rewards (packets sent and time spent on leaving the state).
type assembled struct {
	cfg        Config
	nCA        int
	next       [][]transition
	pkts, time []float64
}

// stateCA maps (w, c) to an index: w in 1..Wm, c in 0..b-1.
func (o *assembled) stateCA(w, c int) int { return (w-1)*o.cfg.B + c }

// stateTO maps backoff stage k (1-based) to an index; stages beyond
// MaxBackoff share the capped stage.
func (o *assembled) stateTO(k int) int {
	return o.nCA + min(k, o.cfg.MaxBackoff+1) - 1
}

func (o *assembled) add(from, to int, prob float64) {
	if prob > 0 {
		o.next[from] = append(o.next[from], transition{to: to, prob: prob})
	}
}

func assemble(ch *Chain) *assembled {
	cfg, p := ch.cfg, ch.p
	o := &assembled{cfg: cfg, nCA: cfg.Wm * cfg.B}
	n := o.nCA + cfg.MaxBackoff + 1
	o.next = make([][]transition, n)
	o.pkts = make([]float64, n)
	o.time = make([]float64, n)
	for w := 1; w <= cfg.Wm; w++ {
		lossProb := 1 - math.Pow(1-p, float64(w))
		q := core.QHat(p, float64(w))
		for c := 0; c < cfg.B; c++ {
			i := o.stateCA(w, c)
			o.pkts[i] = float64(w)
			o.time[i] = cfg.RTT
			// Loss-free: advance the credit; on wrap, grow.
			nw, nc := w, c+1
			if nc >= cfg.B {
				nc = 0
				nw = min(nw+1, cfg.Wm)
			}
			o.add(i, o.stateCA(nw, nc), 1-lossProb)
			// TD: window halves (at least 1), credit resets.
			o.add(i, o.stateCA(max(w/2, 1), 0), lossProb*(1-q))
			// TO: enter the first timeout stage.
			o.add(i, o.stateTO(1), lossProb*q)
		}
	}
	for k := 1; k <= cfg.MaxBackoff+1; k++ {
		i := o.stateTO(k)
		o.pkts[i] = 1
		o.time[i] = cfg.T0 * math.Pow(2, float64(min(k-1, cfg.MaxBackoff)))
		o.add(i, o.stateCA(1, 0), 1-p)
		o.add(i, o.stateTO(k+1), p)
	}
	return o
}

// rateOf is the renewal-reward send rate of a distribution over the
// chain's states.
func rateOf(ch *Chain, pi []float64) float64 {
	o := assemble(ch)
	var pkts, dur float64
	for i, w := range pi {
		pkts += w * o.pkts[i]
		dur += w * o.time[i]
	}
	return pkts / dur
}

// powerMaxIter bounds powerIterate; a run that reaches it has not
// converged.
const powerMaxIter = 100000

// powerIterate computes the stationary distribution by power iteration
// from the uniform vector, stopping when the L1 change of one step drops
// below 1e-12, and returns it with the number of iterations used.
func powerIterate(ch *Chain) ([]float64, int) {
	o := assemble(ch)
	n := len(o.next)
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	nxt := make([]float64, n)
	iters := 0
	for ; iters < powerMaxIter; iters++ {
		clear(nxt)
		for i, ts := range o.next {
			for _, t := range ts {
				nxt[t.to] += pi[i] * t.prob
			}
		}
		sum := 0.0
		for _, v := range nxt {
			sum += v
		}
		diff := 0.0
		for i := range nxt {
			nxt[i] /= sum
			diff += math.Abs(nxt[i] - pi[i])
		}
		pi, nxt = nxt, pi
		if diff < 1e-12 {
			break
		}
	}
	return pi, iters
}

// solveDirect computes the stationary distribution by solving
// π(P − I) = 0 with Σπ = 1 by Gaussian elimination with partial pivoting.
// Cost is O(n³) in the state count.
func solveDirect(ch *Chain) ([]float64, error) {
	o := assemble(ch)
	n := len(o.next)
	// A = Pᵀ − I with the last row replaced by the normalization
	// constraint, and b = (0, ..., 0, 1).
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
		a[i][i] = -1
	}
	for from, ts := range o.next {
		for _, t := range ts {
			a[t.to][from] += t.prob
		}
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	a[n-1][n] = 1
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-14 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = a[i][n] / a[i][i]
		if pi[i] < 0 && pi[i] > -1e-12 {
			pi[i] = 0 // numerical dust
		}
		if pi[i] < 0 {
			return nil, fmt.Errorf("negative stationary probability %g at state %d", pi[i], i)
		}
	}
	return pi, nil
}
