// Package markov implements a numerically-solved Markov model of TCP Reno
// congestion avoidance built from the same assumptions as the closed-form
// analysis of Section II — the counterpart of the more detailed stochastic
// model the paper cites as [13] (UMASS-CS-TR-1999-02) and compares against
// in Fig. 12.
//
// The chain operates at round granularity:
//
//   - Congestion-avoidance states (w, c) track the window w in packets and
//     the ACK-credit c in 0..b-1 accumulated toward the next increment;
//     each loss-free round advances the credit, and the window grows by
//     one every b rounds, capped at the advertised window Wm.
//   - A round of w packets suffers a loss indication with probability
//     1-(1-p)^w (the paper's correlated in-round loss model: only the
//     first loss in a round matters).
//   - On a loss indication, with probability Q̂(w) (eq. 24) the indication
//     is a timeout: the chain enters backoff state k = 1, 2, ... where the
//     k-th timeout lasts min(2^(k-1), 64/2^0)·T0 capped at 64·T0, one
//     packet is retransmitted per timeout, and each retransmission fails
//     independently with probability p; otherwise it is a TD indication
//     and the window halves.
//
// The stationary distribution is solved exactly, in one O(Wm·b) pass with
// no iteration and no tolerance. A loss-free round is the only transition
// that moves a congestion-avoidance state up, and it moves it by one
// index; TD halvings move down and timeouts leave for the backoff stages.
// So across the cut below window w, the one upward flow — out of the last
// credit state of window w-1 — balances the flow out of windows ≥ w:
// their timeouts, and the TD halvings of windows w..2w-1, which land
// below w. Both sides are sums of non-negative terms, so solving the
// windows top-down never subtracts. The backoff stages follow from the
// total timeout flow, and the send rate from renewal-reward:
// B = E[packets per transition] / E[time per transition]. Matching
// Fig. 12, its predictions nearly coincide with the closed form of
// eq. (32).
//
// The state space holds Wm·b + MaxBackoff + 1 states; Validate caps Wm·b
// at MaxStates, where a solve takes a few milliseconds.
package markov

import (
	"fmt"
	"math"

	"pftk/internal/core"
)

// MaxStates caps the congestion-avoidance state count Wm·B of a chain.
const MaxStates = 1 << 16

// maxBackoff caps Config.MaxBackoff: 2^64·T0 is already beyond any
// retransmission timer, and the cap bounds the backoff stages allocated.
const maxBackoff = 64

// Config parameterizes the chain.
type Config struct {
	// RTT is the round duration in seconds.
	RTT float64
	// T0 is the base timeout in seconds.
	T0 float64
	// Wm is the maximum (advertised) window in packets; it also bounds
	// the state space.
	Wm int
	// B is the ACK ratio (packets per ACK); defaults to 2.
	B int
	// MaxBackoff caps the timeout doubling at 2^MaxBackoff; defaults to
	// 6 (the 64·T0 cap of Section II-B).
	MaxBackoff int
}

func (c Config) normalize() Config {
	if c.B < 1 {
		c.B = 2
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 6
	}
	return c
}

// Validate reports whether the configuration is solvable.
func (c Config) Validate() error {
	c = c.normalize()
	if !(c.RTT > 0) || math.IsInf(c.RTT, 1) {
		return fmt.Errorf("markov: RTT must be positive and finite, got %v", c.RTT)
	}
	if !(c.T0 > 0) || math.IsInf(c.T0, 1) {
		return fmt.Errorf("markov: T0 must be positive and finite, got %v", c.T0)
	}
	if c.Wm < 1 {
		return fmt.Errorf("markov: Wm must be at least 1, got %d", c.Wm)
	}
	if c.Wm > MaxStates/c.B {
		return fmt.Errorf("markov: Wm·B = %d·%d exceeds the %d-state cap", c.Wm, c.B, MaxStates)
	}
	if c.MaxBackoff > maxBackoff {
		return fmt.Errorf("markov: MaxBackoff must be at most %d, got %d", maxBackoff, c.MaxBackoff)
	}
	return nil
}

// Chain is the solved Markov chain for one loss rate. Within window w
// every credit state shares the loss probability, so the chain keeps
// per-window quantities and expands them to per-state ones on demand.
type Chain struct {
	cfg Config
	p   float64

	// Per window, at index w-1:
	r    []float64 // (1-p)^w, the probability of a loss-free round
	q    []float64 // Q̂(w), the probability a loss indication is a timeout
	mass []float64 // stationary mass of the window's B credit states
	// to[k-1] is the stationary mass of backoff stage k.
	to []float64

	pi []float64 // per-state distribution, built by Stationary
}

// New assembles and solves the chain for loss rate p.
func New(p float64, cfg Config) (*Chain, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !(p > 0 && p < 1) {
		return nil, fmt.Errorf("markov: p must be in (0,1), got %v", p)
	}
	cfg = cfg.normalize()
	wm := cfg.Wm
	buf := make([]float64, 5*wm+cfg.MaxBackoff+1)
	ch := &Chain{
		cfg:  cfg,
		p:    p,
		r:    buf[:wm:wm],
		q:    buf[wm : 2*wm : 2*wm],
		mass: buf[2*wm : 3*wm : 3*wm],
		to:   buf[5*wm:],
	}
	ch.solve(buf[3*wm:4*wm:4*wm], buf[4*wm:5*wm:5*wm])
	return ch, nil
}

// solve fills r, q, mass and to with the exact stationary distribution.
//
// Windows are solved top-down, starting from π(Wm, 0) = 1. Inside window
// w only a loss-free round enters credit state c > 0, so
// π(w, c) = π(w, 0)·r^c, the window's mass is π(w, 0)·Σ_{c<B} r^c, and
// π(w, 0)·r^B climbs out of it. That climb balances the flow x down
// across the cut below window w+1:
//
//	x = Σ_{v > w} mass(v)·ℓ(v)·Q̂(v) + Σ_{v=w+1}^{min(2w+1, Wm)} mass(v)·ℓ(v)·(1-Q̂(v))
//
// with ℓ = 1-r. The first sum is a running total. The second slides
// down the windows, losing two terms at the top for each one it gains at
// the bottom; instead of subtracting the terms it loses, it is kept as a
// queue built from two stacks: windows enter a running sum (back), and
// when the window's top end drops below them they are folded once into
// prefix sums read from the top (front). Every window is folded once,
// so the pass is O(Wm·B).
//
// At high loss π(w, 0) grows by up to (1-p)^{-wB} per window. The running
// sums are kept in units of 2^e and rescaled when a new π(w, 0) would
// exceed 2^256, which keeps sums of Wm·B terms far below overflow.
// exp[i] records the units of mass[i] and td[i]; normalization brings
// every value to the final units, where masses below the float range
// become zero.
func (ch *Chain) solve(exp, td []float64) {
	wm, b, p := ch.cfg.Wm, ch.cfg.B, ch.p
	e := 0
	// toFlow and back are in units of 2^e; td[mid:] holds the front's
	// prefix sums, in units of 2^frontE.
	var toFlow, back, x float64
	mid, frontE := wm, 0
	lp := math.Log1p(-p)
	for i := wm - 1; i >= 0; i-- {
		w := float64(i + 1)
		r := math.Exp(w * lp) // (1-p)^w
		q := core.QHatR(p, w, r)
		g, rb := 0.0, 1.0 // Σ_{c<B} r^c and r^B
		for c := 0; c < b; c++ {
			g += rb
			rb *= r
		}
		bot := 1.0
		switch {
		case i == wm-1:
		case rb == 0:
			// The climb out of this window underflows: the windows above
			// hold no mass in floating point. Shifting the units by more
			// than the float range zeroes them.
			e += 2200
			toFlow, back = 0, 0
		default:
			bot = x / rb
			if bot > 0x1p256 { // or +Inf
				// Rescale the live sums so that bot is about 1.
				xm, xe := math.Frexp(x)
				rm, re := math.Frexp(rb)
				k := xe - re
				e += k
				toFlow = math.Ldexp(toFlow, -k)
				back = math.Ldexp(back, -k)
				bot = xm / rm
			}
		}
		m := bot * g
		l := 1 - r
		ch.r[i], ch.q[i], ch.mass[i], exp[i] = r, q, m, float64(e)
		toFlow += m * l * q
		td[i] = m * l * (1 - q)
		if i == 0 {
			break
		}
		// Flow down across the cut below this window: TD halvings of
		// windows w..min(2w-1, Wm), at indices i..hi.
		back += td[i]
		hi := min(2*i, wm-1)
		var front float64
		if hi < mid {
			// The front is spent: fold the in-window part of the back
			// into prefix sums.
			for j := i + 1; j <= hi; j++ {
				td[j] = td[j-1] + inUnits(td[j], int(exp[j]), e)
			}
			front, back = td[hi], 0
			mid, frontE = i, e
		} else {
			front = inUnits(td[hi], frontE, e)
		}
		x = toFlow + back + front
	}

	// Backoff stage 1 receives every timeout; each later stage the failed
	// retransmissions of the one before, and the last stage also its own.
	k := len(ch.to)
	ch.to[0] = toFlow
	for j := 1; j < k-1; j++ {
		ch.to[j] = ch.to[j-1] * p
	}
	ch.to[k-1] = ch.to[k-2] * p / (1 - p)

	total := 0.0
	for i := range ch.mass {
		ch.mass[i] = inUnits(ch.mass[i], int(exp[i]), e)
		total += ch.mass[i]
	}
	for _, v := range ch.to {
		total += v
	}
	for i := range ch.mass {
		ch.mass[i] /= total
	}
	for j := range ch.to {
		ch.to[j] /= total
	}
}

// inUnits converts v from units of 2^from to units of 2^to.
func inUnits(v float64, from, to int) float64 {
	if from == to {
		return v
	}
	return math.Ldexp(v, from-to)
}

// wait is the duration of backoff stage k (1-based):
// T0·2^min(k-1, MaxBackoff).
func (ch *Chain) wait(k int) float64 {
	return math.Ldexp(ch.cfg.T0, min(k-1, ch.cfg.MaxBackoff))
}

// NumStates returns the size of the state space.
func (ch *Chain) NumStates() int { return ch.cfg.Wm*ch.cfg.B + len(ch.to) }

// Stationary returns the stationary distribution over states: (w, c) at
// index (w-1)·B + c, then backoff stage k at Wm·B + k-1. The returned
// slice is owned by the chain.
func (ch *Chain) Stationary() []float64 {
	if ch.pi != nil {
		return ch.pi
	}
	b := ch.cfg.B
	pi := make([]float64, 0, ch.NumStates())
	for i, m := range ch.mass {
		g, t := 0.0, 1.0
		for c := 0; c < b; c++ {
			g += t
			t *= ch.r[i]
		}
		t = m / g
		for c := 0; c < b; c++ {
			pi = append(pi, t)
			t *= ch.r[i]
		}
	}
	ch.pi = append(pi, ch.to...)
	return ch.pi
}

// SendRate returns the steady-state send rate in packets per second by
// renewal reward over the stationary distribution: a round of window w
// sends w packets in one RTT, a backoff stage one packet in its wait.
func (ch *Chain) SendRate() float64 {
	var pkts, ca float64
	for i, m := range ch.mass {
		pkts += m * float64(i+1)
		ca += m
	}
	dur := ca * ch.cfg.RTT
	for j, m := range ch.to {
		pkts += m
		dur += m * ch.wait(j+1)
	}
	if dur == 0 {
		return 0
	}
	return pkts / dur
}

// timeWeights returns the stationary time spent in congestion avoidance
// and in backoff, in seconds per transition.
func (ch *Chain) timeWeights() (ca, to float64) {
	for _, m := range ch.mass {
		ca += m
	}
	for j, m := range ch.to {
		to += m * ch.wait(j+1)
	}
	return ca * ch.cfg.RTT, to
}

// TimeoutFraction returns the stationary probability mass in timeout
// states weighted by time — the fraction of wall-clock time spent waiting
// out RTOs.
func (ch *Chain) TimeoutFraction() float64 {
	ca, to := ch.timeWeights()
	if ca+to == 0 {
		return 0
	}
	return to / (ca + to)
}

// MeanWindow returns the stationary mean congestion window over
// congestion-avoidance states (timeout states count as window 1),
// weighted by time.
func (ch *Chain) MeanWindow() float64 {
	ca, to := ch.timeWeights()
	if ca+to == 0 {
		return 0
	}
	sum := to
	for i, m := range ch.mass {
		sum += m * ch.cfg.RTT * float64(i+1)
	}
	return sum / (ca + to)
}

// LossMix returns the stationary fraction of loss indications that are
// timeouts — the chain-level counterpart of the model's Q of eq. (26).
// It weights each window's TD and TO exit probabilities by the
// stationary mass of the window.
func (ch *Chain) LossMix() float64 {
	var td, to float64
	for i, m := range ch.mass {
		l := 1 - ch.r[i]
		td += m * l * (1 - ch.q[i])
		to += m * l * ch.q[i]
	}
	if td+to == 0 {
		return 0
	}
	return to / (td + to)
}

// SendRate solves the chain for the given loss rate and parameters and
// returns the send rate — the one-call form used by the Fig. 12
// experiment.
func SendRate(p float64, cfg Config) (float64, error) {
	ch, err := New(p, cfg)
	if err != nil {
		return 0, err
	}
	return ch.SendRate(), nil
}
