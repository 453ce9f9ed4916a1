package roundsim

import (
	"math"
	"testing"

	"pftk/internal/core"
	"pftk/internal/proptest"
)

func run(t *testing.T, cfg Config, tdps int) Stats {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.RunTDPs(tdps)
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{P: 0, RTT: 1, T0: 1},
		{P: 1, RTT: 1, T0: 1},
		{P: 0.1, RTT: 0, T0: 1},
		{P: 0.1, RTT: 1, T0: 0},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(Config{P: 0.1, RTT: 0.2, T0: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestMeanWMatchesEq13 validates the E[W] derivation. Eq. (13) is derived
// in Section II-A under the TD-only assumption (every period starts at
// half the previous end window), so the simulator runs in TDOnly mode: the
// Monte-Carlo end-of-period window must converge to eq. (13).
func TestMeanWMatchesEq13(t *testing.T) {
	for _, p := range []float64{0.01, 0.03, 0.08} {
		st := run(t, Config{P: p, RTT: 0.1, T0: 1, Seed: uint64(p * 1e5), TDOnly: true}, 60000)
		got := st.MeanW()
		want := core.EW(p, 2)
		if r := got / want; r < 0.85 || r > 1.15 {
			t.Errorf("p=%g: empirical E[W]=%.2f vs eq.(13)=%.2f (ratio %.3f)", p, got, want, r)
		}
	}
}

// TestFullProcessWindowBelowEq13 documents why TDOnly mode exists: with
// timeouts resetting the window to one, the end-of-period window sits
// measurably below the TD-only E[W].
func TestFullProcessWindowBelowEq13(t *testing.T) {
	for _, p := range []float64{0.03, 0.08} {
		st := run(t, Config{P: p, RTT: 0.1, T0: 1, Seed: 5}, 40000)
		if st.MeanW() >= core.EW(p, 2) {
			t.Errorf("p=%g: full-process E[W]=%.2f should be below eq.(13)=%.2f",
				p, st.MeanW(), core.EW(p, 2))
		}
	}
}

// TestMeanXMatchesEq15 validates the round-count derivation.
func TestMeanXMatchesEq15(t *testing.T) {
	for _, p := range []float64{0.01, 0.03, 0.08} {
		st := run(t, Config{P: p, RTT: 0.1, T0: 1, Seed: 7 + uint64(p*1e5)}, 60000)
		got := st.MeanX()
		want := core.EX(p, 2) + 1 // the simulator counts the final (last) round too
		if r := got / want; r < 0.85 || r > 1.15 {
			t.Errorf("p=%g: empirical E[X]=%.2f vs eq.(15)+1=%.2f (ratio %.3f)", p, got, want, r)
		}
	}
}

// TestMeanYMatchesEq5 validates E[Y] = (1-p)/p + E[W].
func TestMeanYMatchesEq5(t *testing.T) {
	for _, p := range []float64{0.01, 0.03, 0.08} {
		st := run(t, Config{P: p, RTT: 0.1, T0: 1, Seed: 11}, 60000)
		got := st.MeanY()
		want := core.EY(p, 2)
		if r := got / want; r < 0.8 || r > 1.25 {
			t.Errorf("p=%g: empirical E[Y]=%.1f vs eq.(5)=%.1f (ratio %.3f)", p, got, want, r)
		}
	}
}

// TestQMatchesQHat validates the timeout-probability construction of
// Fig. 4 against the closed form Q̂ of eq. (24), evaluated at the
// process's own mean end-of-period window (the paper's approximation (26)
// plugs in E[W]; using the empirical mean removes the feedback bias that
// timeout-reset windows introduce).
func TestQMatchesQHat(t *testing.T) {
	for _, p := range []float64{0.02, 0.05, 0.1} {
		st := run(t, Config{P: p, RTT: 0.1, T0: 1, Seed: 13}, 80000)
		got := st.Q()
		want := core.QHat(p, st.MeanW())
		if math.Abs(got-want) > 0.1 {
			t.Errorf("p=%g: empirical Q=%.3f vs Q̂(meanW=%.2f)=%.3f", p, got, st.MeanW(), want)
		}
	}
}

// TestSendRateMatchesEq32 validates the end-to-end formula on the model's
// own process.
func TestSendRateMatchesEq32(t *testing.T) {
	for _, p := range []float64{0.01, 0.03, 0.08, 0.15} {
		cfg := Config{P: p, RTT: 0.2, T0: 2.0, Seed: 17}
		st := run(t, cfg, 60000)
		got := st.SendRate()
		want := core.SendRateFull(p, core.Params{RTT: cfg.RTT, T0: cfg.T0, Wm: 0, B: 2})
		if r := got / want; r < 0.75 || r > 1.35 {
			t.Errorf("p=%g: empirical B=%.2f vs eq.(32)=%.2f (ratio %.3f)", p, got, want, r)
		}
	}
}

// TestWindowCapRespected checks the Wm-limited regime of Section II-C.
func TestWindowCapRespected(t *testing.T) {
	cfg := Config{P: 0.003, RTT: 0.2, T0: 2.0, Wm: 8, Seed: 19}
	st := run(t, cfg, 30000)
	if st.MeanW() > 8.0001 {
		t.Errorf("mean end window %g exceeds Wm", st.MeanW())
	}
	// Rate must respect the ceiling.
	if st.SendRate() > 8/0.2*1.01 {
		t.Errorf("rate %g above Wm/RTT", st.SendRate())
	}
	want := core.SendRateFull(0.003, core.Params{RTT: 0.2, T0: 2, Wm: 8, B: 2})
	if r := st.SendRate() / want; r < 0.7 || r > 1.3 {
		t.Errorf("window-limited rate %.2f vs model %.2f", st.SendRate(), want)
	}
}

// TestTimeoutSequenceLengthGeometric verifies the geometric distribution
// of timeouts per sequence assumed in eq. (27).
func TestTimeoutSequenceLengthGeometric(t *testing.T) {
	p := 0.3
	st := run(t, Config{P: p, RTT: 0.1, T0: 0.5, Seed: 23}, 50000)
	if st.TOEvents == 0 {
		t.Fatal("no timeout sequences")
	}
	meanLen := float64(st.Timeouts) / float64(st.TOEvents)
	want := 1 / (1 - p) // eq. (27)
	if math.Abs(meanLen-want)/want > 0.1 {
		t.Errorf("mean timeouts per sequence = %.3f, want %.3f", meanLen, want)
	}
}

// TestDeterministicBySeed ensures reproducibility.
func TestDeterministicBySeed(t *testing.T) {
	a := run(t, Config{P: 0.05, RTT: 0.1, T0: 1, Seed: 99}, 5000)
	b := run(t, Config{P: 0.05, RTT: 0.1, T0: 1, Seed: 99}, 5000)
	if a != b {
		t.Error("same seed produced different stats")
	}
	c := run(t, Config{P: 0.05, RTT: 0.1, T0: 1, Seed: 100}, 5000)
	if a == c {
		t.Error("different seeds produced identical stats")
	}
}

// TestStatsAccessorsOnEmpty guards division by zero.
func TestStatsAccessorsOnEmpty(t *testing.T) {
	var s Stats
	if s.Q() != 0 || s.SendRate() != 0 {
		t.Error("empty stats should report zeros where defined")
	}
}

// TestHighLossMostlyTimeouts reproduces the regime insight: at high p
// nearly all loss indications are timeouts (Q -> 1).
func TestHighLossMostlyTimeouts(t *testing.T) {
	st := run(t, Config{P: 0.4, RTT: 0.1, T0: 1, Seed: 31}, 30000)
	if st.Q() < 0.9 {
		t.Errorf("Q at p=0.4 is %g, want near 1", st.Q())
	}
}

func TestQuickSendRateMonotoneInP(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		p1 := 0.005 + float64(aRaw%100)/400 // up to ~0.25
		p2 := p1 + 0.02 + float64(bRaw%50)/400
		if p2 >= 0.6 {
			p2 = 0.6
		}
		r1 := run2(p1)
		r2 := run2(p2)
		// Allow 10% statistical slack.
		return r1 >= r2*0.9
	}
	proptest.Check(t, f, 25)
}

func run2(p float64) float64 {
	s, err := New(Config{P: p, RTT: 0.2, T0: 1.5, Seed: uint64(p * 1e6)})
	if err != nil {
		panic(err)
	}
	return s.RunTDPs(20000).SendRate()
}

func TestQuickStatsAlwaysCoherent(t *testing.T) {
	f := func(pRaw, wmRaw uint8, seed uint64) bool {
		p := 0.005 + float64(pRaw%120)/200 // up to ~0.6
		wm := float64(wmRaw % 40)          // 0 = unlimited
		s, err := New(Config{P: p, RTT: 0.1, T0: 1, Wm: wm, Seed: seed})
		if err != nil {
			return false
		}
		st := s.RunTDPs(2000)
		if st.TDPs != 2000 {
			return false
		}
		if st.TDEvents+st.TOEvents != st.TDPs {
			return false
		}
		if st.Timeouts < st.TOEvents {
			return false
		}
		if st.SumW <= 0 || st.SumX <= 0 || st.SumY <= 0 || st.Elapsed <= 0 {
			return false
		}
		if wm > 0 && st.MeanW() > wm+1e-9 {
			return false
		}
		return true
	}
	proptest.Check(t, f, 40)
}
