// Package core implements the PFTK steady-state model of TCP Reno
// performance from Padhye, Firoiu, Towsley and Kurose, "Modeling TCP
// Throughput: A Simple Model and Its Empirical Validation" (SIGCOMM 1998;
// journal version IEEE/ACM ToN 8(2), 2000).
//
// The package provides, as pure functions of the loss-indication rate p and
// the connection parameters (RTT, T0, Wm, b):
//
//   - the "full model" send rate B(p) of eq. (32),
//   - the "approximate model" of eq. (33),
//   - the "TD only" baseline of Mathis et al. used for comparison in the
//     paper (eq. (20) and its exact form eq. (19)),
//   - the throughput model T(p) of eqs. (34)-(38),
//   - every intermediate quantity of the derivation: E[W] (13), E[X] (15),
//     E[A] (16), Q-hat in both its exact summation form (22)-(23) and its
//     closed form (24), the 3/w approximation (25), E[R] (27), E[Z^TO] and
//     f(p) (29),
//   - the inverse model: the loss rate at which a connection with the given
//     parameters would achieve a target send rate (the "TCP-friendly" use
//     of the formula that motivates the paper).
//
// All rates are in packets per second; RTT and T0 are in seconds; windows
// are in packets. p is the probability that a packet is lost given that it
// is the first packet of its round or the preceding packet of its round was
// not lost (the paper's loss-indication rate).
package core

import (
	"errors"
	"fmt"
	"math"
)

// DefaultB is the typical number of packets acknowledged per ACK when the
// receiver implements delayed ACKs (RFC 1122), used throughout the paper.
const DefaultB = 2

// Params holds the connection parameters of the PFTK model.
//
// The zero value is not useful; use NewParams or fill every field. Wm <= 0
// means "no receiver window limitation" (the unconstrained model).
type Params struct {
	// RTT is the average round trip time E[r] in seconds.
	RTT float64
	// T0 is the average duration of a single ("first") retransmission
	// timeout in seconds.
	T0 float64
	// Wm is the maximum window size advertised by the receiver, in
	// packets. Wm <= 0 disables the window limitation.
	Wm float64
	// B is the number of packets acknowledged by one ACK (the paper's b;
	// 2 with delayed ACKs, 1 without). Values < 1 are treated as
	// DefaultB.
	B int
}

// NewParams returns Params with the given average RTT and timeout, a
// receiver window of wm packets (wm <= 0 for unlimited) and delayed ACKs
// (b = 2).
func NewParams(rtt, t0, wm float64) Params {
	return Params{RTT: rtt, T0: t0, Wm: wm, B: DefaultB}
}

// Validate reports whether the parameters define a usable model instance.
func (pr Params) Validate() error {
	switch {
	case math.IsNaN(pr.RTT) || pr.RTT <= 0:
		return fmt.Errorf("core: RTT must be positive, got %v", pr.RTT)
	case math.IsNaN(pr.T0) || pr.T0 <= 0:
		return fmt.Errorf("core: T0 must be positive, got %v", pr.T0)
	case math.IsNaN(pr.Wm):
		return errors.New("core: Wm must not be NaN")
	default:
		return nil
	}
}

// ackRatio returns the effective b, defaulting to DefaultB.
func (pr Params) ackRatio() float64 {
	if pr.B < 1 {
		return DefaultB
	}
	return float64(pr.B)
}

// windowLimited reports whether the parameters include a receiver window
// limitation.
func (pr Params) windowLimited() bool { return pr.Wm > 0 }

// String implements fmt.Stringer.
func (pr Params) String() string {
	wm := "unlimited"
	if pr.windowLimited() {
		wm = fmt.Sprintf("%g pkts", pr.Wm)
	}
	return fmt.Sprintf("Params(RTT=%gs, T0=%gs, Wm=%s, b=%g)", pr.RTT, pr.T0, wm, pr.ackRatio())
}

// clampP limits p to the half-open interval the model is defined on.
// Negative or NaN values are treated as 0; values >= 1 as exactly 1.
func clampP(p float64) float64 {
	switch {
	case math.IsNaN(p), p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// EW returns E[W], the mean unconstrained window size at the end of a
// triple-duplicate period, from eq. (13):
//
//	E[W] = (2+b)/(3b) + sqrt( 8(1-p)/(3bp) + ((2+b)/(3b))^2 )
//
// EW(p, b) diverges as p -> 0 and tends to (2+b)/(3b)·2 as p -> 1.
func EW(p float64, b float64) float64 {
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	c := (2 + b) / (3 * b)
	return c + math.Sqrt(8*(1-p)/(3*b*p)+c*c)
}

// EWSmallP returns the small-p asymptote of E[W] from eq. (14):
// sqrt(8/(3bp)).
func EWSmallP(p float64, b float64) float64 {
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(8 / (3 * b * p))
}

// EX returns E[X], the mean number of rounds in a triple-duplicate period,
// from eq. (15):
//
//	E[X] = (2+b)/6 + sqrt( 2b(1-p)/(3p) + ((2+b)/6)^2 )
func EX(p float64, b float64) float64 {
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	c := (2 + b) / 6
	return c + math.Sqrt(2*b*(1-p)/(3*p)+c*c)
}

// EXSmallP returns the small-p asymptote of E[X] from eq. (17):
// sqrt(2b/(3p)).
func EXSmallP(p float64, b float64) float64 {
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 * b / (3 * p))
}

// EA returns E[A], the mean duration of a triple-duplicate period, from
// eq. (16): RTT·(E[X] + 1).
func EA(p float64, rtt, b float64) float64 {
	return rtt * (EX(p, b) + 1)
}

// EY returns E[Y], the mean number of packets sent in a triple-duplicate
// period, from eq. (5): (1-p)/p + E[W].
func EY(p float64, b float64) float64 {
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	return (1-p)/p + EW(p, b)
}

// ER returns E[R], the mean number of packets sent during a timeout
// sequence, from eq. (27): 1/(1-p).
func ER(p float64) float64 {
	p = clampP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return 1 / (1 - p)
}

// FP returns f(p) from eq. (29):
//
//	f(p) = 1 + p + 2p^2 + 4p^3 + 8p^4 + 16p^5 + 32p^6
//
// which arises from the exponentially backed-off timeout durations
// T0, 2T0, 4T0, ..., capped at 64·T0.
func FP(p float64) float64 {
	p = clampP(p)
	// Horner form of 1 + p + 2p^2 + 4p^3 + 8p^4 + 16p^5 + 32p^6.
	return 1 + p*(1+p*(2+p*(4+p*(8+p*(16+p*32)))))
}

// EZTO returns E[Z^TO], the mean duration of a timeout sequence (excluding
// the retransmission rounds that follow it): T0·f(p)/(1-p).
func EZTO(p float64, t0 float64) float64 {
	p = clampP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return t0 * FP(p) / (1 - p)
}

// TimeoutSequenceDuration returns L_k, the duration of a sequence of k
// consecutive timeouts in units of T0:
//
//	L_k = (2^k - 1)·T0        for k <= 6
//	L_k = (63 + 64(k-6))·T0   for k >= 7
//
// It returns 0 for k <= 0.
func TimeoutSequenceDuration(k int, t0 float64) float64 {
	switch {
	case k <= 0:
		return 0
	case k <= 6:
		return (math.Pow(2, float64(k)) - 1) * t0
	default:
		return (63 + 64*float64(k-6)) * t0
	}
}

// AProb returns A(w, k) from Section II-B: the probability that the first k
// packets are ACKed in a round of w packets, given that the round contains
// one or more losses.
func AProb(p float64, w, k int) float64 {
	p = clampP(p)
	if w <= 0 || k < 0 || k > w {
		return 0
	}
	if p == 0 {
		return 0 // conditioning event has probability 0
	}
	denom := 1 - math.Pow(1-p, float64(w))
	if denom == 0 {
		return 0
	}
	return math.Pow(1-p, float64(k)) * p / denom
}

// CProb returns C(n, m) from Section II-B: the probability that m packets
// are ACKed in sequence in the last round of n packets and the rest of the
// round, if any, are lost.
func CProb(p float64, n, m int) float64 {
	p = clampP(p)
	if n <= 0 || m < 0 || m > n {
		return 0
	}
	if m == n {
		return math.Pow(1-p, float64(n))
	}
	return math.Pow(1-p, float64(m)) * p
}

// QHatExact returns the probability that a loss indication occurring at
// window size w is a timeout, computed by the exact summation of
// eqs. (22)-(23):
//
//	Q̂(w) = 1                                                w <= 3
//	Q̂(w) = Σ_{k=0}^{2} A(w,k) + Σ_{k=3}^{w} A(w,k)·h(k)      otherwise
//	h(k) = Σ_{m=0}^{2} C(k,m)
//
// w is the (integer) window size in packets.
func QHatExact(p float64, w int) float64 {
	p = clampP(p)
	if w <= 3 {
		return 1
	}
	if p == 0 {
		// lim_{p->0} Q̂(w) = 3/w (shown in the paper by L'Hopital).
		return 3 / float64(w)
	}
	q := 0.0
	for k := 0; k <= 2; k++ {
		q += AProb(p, w, k)
	}
	for k := 3; k <= w; k++ {
		h := CProb(p, k, 0) + CProb(p, k, 1) + CProb(p, k, 2)
		q += AProb(p, w, k) * h
	}
	return math.Min(1, q)
}

// QHat returns the closed form of Q̂(w) from eq. (24):
//
//	Q̂(w) = min(1, (1-(1-p)^3)·(1+(1-p)^3·(1-(1-p)^{w-3})) / (1-(1-p)^w))
//
// Unlike QHatExact, w may be non-integral (the paper evaluates Q̂ at E[W]).
// For w <= 3 it returns 1, matching eq. (22).
func QHat(p float64, w float64) float64 {
	if math.IsInf(w, 1) {
		return 0
	}
	return QHatR(p, w, math.Pow(1-clampP(p), w))
}

// QHatR is QHat for a caller that already holds r = (1-p)^w, the
// probability that a round of w packets is loss-free, as a Markov chain
// over windows does. With (1-p)^{w-3} = r/(1-p)^3, eq. (24) needs no
// further powers:
//
//	Q̂(w) = min(1, (1-(1-p)^3)·(1+(1-p)^3-r) / (1-r))
func QHatR(p, w, r float64) float64 {
	p = clampP(p)
	if w <= 3 || math.IsNaN(w) {
		return 1
	}
	if p == 0 {
		return 3 / w
	}
	q := 1 - p
	q3 := q * q * q
	denom := 1 - r
	if denom <= 0 {
		return 1
	}
	return math.Min(1, (1-q3)*(1+q3-r)/denom)
}

// QHatApprox returns the paper's numerical approximation of Q̂ from
// eq. (25): min(1, 3/w).
func QHatApprox(w float64) float64 {
	if w <= 0 {
		return 1
	}
	return math.Min(1, 3/w)
}

// Q returns the probability that a loss indication is a timeout, using the
// paper's approximation (26): Q ≈ Q̂(E[W]) with E[W] from eq. (13), capped
// at Wm when the window is limited.
func Q(p float64, pr Params) float64 {
	p = clampP(p)
	if p == 0 {
		if pr.windowLimited() {
			return QHat(0, pr.Wm)
		}
		return 0
	}
	w := EW(p, pr.ackRatio())
	if pr.windowLimited() && w > pr.Wm {
		w = pr.Wm
	}
	return QHat(p, w)
}

// SendRateTDOnlyExact returns the send rate when all loss indications are
// triple-duplicate ACKs, eq. (19):
//
//	B(p) = ((1-p)/p + E[W]) / (RTT·(E[X] + 1))
//
// This is the model of Section II-A with no timeout or window-limitation
// terms. It returns +Inf at p == 0.
func SendRateTDOnlyExact(p float64, rtt, b float64) float64 {
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	return EY(p, b) / EA(p, rtt, b)
}

// SendRateTDOnly returns the "TD only" baseline plotted in the paper's
// Figs. 7-10 — the model of Mathis, Semke, Mahdavi and Ott [9], which is
// the square-root formula of eq. (20) accounting for delayed ACKs:
//
//	B(p) = (1/RTT)·sqrt(3/(2bp))
//
// It returns +Inf at p == 0 and does not account for timeouts or the
// receiver window. A delayed-ACK ratio b below 1 (unset) defaults to
// DefaultB, so every caller — the pftk facade, the prediction service,
// the experiment harness — sees identical defaulting.
func SendRateTDOnly(p float64, rtt, b float64) float64 {
	if b < 1 {
		b = DefaultB
	}
	p = clampP(p)
	if p == 0 {
		return math.Inf(1)
	}
	if p == 1 {
		return 1 / rtt * math.Sqrt(3/(2*b))
	}
	return 1 / rtt * math.Sqrt(3/(2*b*p))
}

// SendRateNoTimeout returns the send rate of the Section II-A model
// extended only with the window limitation but not timeouts; exposed for
// ablation studies. At p == 0 it returns Wm/RTT when the window is limited.
func SendRateNoTimeout(p float64, pr Params) float64 {
	p = clampP(p)
	b := pr.ackRatio()
	if p == 0 {
		if pr.windowLimited() {
			return pr.Wm / pr.RTT
		}
		return math.Inf(1)
	}
	if !pr.windowLimited() || EW(p, b) < pr.Wm {
		return SendRateTDOnlyExact(p, pr.RTT, b)
	}
	wm := pr.Wm
	num := (1-p)/p + wm
	den := pr.RTT * (b/8*wm + (1-p)/(p*wm) + 2)
	return num / den
}

// SendRateFull returns the paper's "full model" send rate B(p) of eq. (32):
//
//	            (1-p)/p + E[W] + Q̂(E[W])·1/(1-p)
//	B(p) = ─────────────────────────────────────────────     E[Wu] < Wm
//	        RTT·(b/2·E[Wu] + 1) + Q̂(E[W])·T0·f(p)/(1-p)
//
//	            (1-p)/p + Wm + Q̂(Wm)·1/(1-p)
//	B(p) = ──────────────────────────────────────────────────   otherwise
//	        RTT·(b/8·Wm + (1-p)/(p·Wm) + 2) + Q̂(Wm)·T0·f(p)/(1-p)
//
// in packets per second. Boundary behaviour: B(0) = Wm/RTT when the window
// is limited and +Inf otherwise; B(1) = 0.
func SendRateFull(p float64, pr Params) float64 {
	p = clampP(p)
	b := pr.ackRatio()
	switch p {
	case 0:
		if pr.windowLimited() {
			return pr.Wm / pr.RTT
		}
		return math.Inf(1)
	case 1:
		return 0
	}
	wu := EW(p, b)
	if !pr.windowLimited() || wu < pr.Wm {
		q := QHat(p, wu)
		num := (1-p)/p + wu + q/(1-p)
		den := pr.RTT*(b/2*wu+1) + q*pr.T0*FP(p)/(1-p)
		return num / den
	}
	wm := pr.Wm
	q := QHat(p, wm)
	num := (1-p)/p + wm + q/(1-p)
	den := pr.RTT*(b/8*wm+(1-p)/(p*wm)+2) + q*pr.T0*FP(p)/(1-p)
	return num / den
}

// SendRateApprox returns the paper's "approximate model" of eq. (33):
//
//	B(p) ≈ min( Wm/RTT,
//	            1 / ( RTT·sqrt(2bp/3) + T0·min(1, 3·sqrt(3bp/8))·p·(1+32p²) ) )
//
// in packets per second. When the window is unlimited the Wm/RTT term is
// dropped.
func SendRateApprox(p float64, pr Params) float64 {
	p = clampP(p)
	b := pr.ackRatio()
	unconstrained := func() float64 {
		if p == 0 {
			return math.Inf(1)
		}
		den := pr.RTT*math.Sqrt(2*b*p/3) +
			pr.T0*math.Min(1, 3*math.Sqrt(3*b*p/8))*p*(1+32*p*p)
		return 1 / den
	}()
	if !pr.windowLimited() {
		return unconstrained
	}
	return math.Min(pr.Wm/pr.RTT, unconstrained)
}

// WThroughput returns W(p) of eq. (38) generalized to arbitrary b; for
// b = 2 it reduces to the printed form 2/3 + sqrt(4(1-p)/(3p) + 4/9).
// It equals EW(p, b).
func WThroughput(p float64, b float64) float64 { return EW(p, b) }

// Throughput returns T(p) of eq. (37): the rate at which data arrives at
// the receiver (as opposed to the send rate, which counts every
// transmission). The printed equation hardcodes b = 2; this implementation
// keeps b parametric through E[W] and E[X], reducing exactly to the printed
// form at b = 2:
//
//	          (1-p)/p + W(p)/2 + Q(p, W(p))
//	T(p) = ─────────────────────────────────────        W(p) < Wm
//	        RTT·(b/2·W(p) + 1) + Q·G(p)·T0/(1-p)
//
//	              (1-p)/p + Wm/2 + Q(p, Wm)
//	T(p) = ────────────────────────────────────────────────   otherwise
//	        RTT·(b/8·Wm + (1-p)/(p·Wm) + 2) + Q·G(p)·T0/(1-p)
//
// Boundary behaviour matches SendRateFull: T(0) = Wm/RTT (window-limited)
// or +Inf; T(1) = 0.
func Throughput(p float64, pr Params) float64 {
	p = clampP(p)
	b := pr.ackRatio()
	switch p {
	case 0:
		if pr.windowLimited() {
			return pr.Wm / pr.RTT
		}
		return math.Inf(1)
	case 1:
		return 0
	}
	w := WThroughput(p, b)
	if !pr.windowLimited() || w < pr.Wm {
		q := QHat(p, w)
		num := (1-p)/p + w/2 + q
		den := pr.RTT*(b/2*w+1) + q*FP(p)*pr.T0/(1-p)
		return num / den
	}
	wm := pr.Wm
	q := QHat(p, wm)
	num := (1-p)/p + wm/2 + q
	den := pr.RTT*(b/8*wm+(1-p)/(p*wm)+2) + q*FP(p)*pr.T0/(1-p)
	return num / den
}

// Model selects one of the analytic characterizations implemented by this
// package.
type Model int

// The models implemented by this package.
const (
	// ModelFull is the paper's full model, eq. (32).
	ModelFull Model = iota
	// ModelApprox is the paper's approximate model, eq. (33).
	ModelApprox
	// ModelTDOnly is the Mathis et al. [9] baseline ("TD only" in the
	// paper's figures), eq. (20).
	ModelTDOnly
	// ModelThroughput is the receiver-side throughput model, eq. (37).
	ModelThroughput
	// ModelNoTimeout is the Section II-A model with window limitation
	// but without timeouts (ablation).
	ModelNoTimeout
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelFull:
		return "full"
	case ModelApprox:
		return "approximate"
	case ModelTDOnly:
		return "TD only"
	case ModelThroughput:
		return "throughput"
	case ModelNoTimeout:
		return "no-timeout"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Rate evaluates the selected model at loss rate p with parameters pr, in
// packets per second.
func (m Model) Rate(p float64, pr Params) float64 {
	switch m {
	case ModelFull:
		return SendRateFull(p, pr)
	case ModelApprox:
		return SendRateApprox(p, pr)
	case ModelTDOnly:
		return SendRateTDOnly(p, pr.RTT, pr.ackRatio())
	case ModelThroughput:
		return Throughput(p, pr)
	case ModelNoTimeout:
		return SendRateNoTimeout(p, pr)
	default:
		return math.NaN()
	}
}
