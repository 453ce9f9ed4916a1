package core

import "math"

// Short-flow latency extension.
//
// The paper models saturated senders and lists short connections as
// future work (its reference [2], Cardwell's "Modeling the performance of
// short TCP connections", became Cardwell, Savage & Anderson, INFOCOM
// 2000). This file implements that extension in the same spirit: the
// expected time to transfer n packets decomposes into
//
//	E[T] = E[T_ss] + E[T_loss] + E[T_ca]
//
// where T_ss is the initial slow-start phase (window grows by a factor
// γ = 1 + 1/b per round until the first loss, the receiver window, or the
// end of data), T_loss is the expected cost of the first loss indication
// (a timeout sequence with probability Q̂, one round otherwise), and T_ca
// is the remainder of the data sent at the steady-state rate B(p) of
// eq. (32).

// SlowStartRounds returns the number of slow-start rounds needed to
// transfer d packets starting from window w1 with per-round growth factor
// gamma, before any window cap: the smallest r with
// w1·(γ^r − 1)/(γ − 1) >= d.
func SlowStartRounds(d float64, w1, gamma float64) float64 {
	if d <= 0 {
		return 0
	}
	if w1 < 1 {
		w1 = 1
	}
	return math.Log(d*(gamma-1)/w1+1) / math.Log(gamma)
}

// slowStartDataBeforeLoss returns E[d_ss]: the expected number of packets
// sent before the first loss, capped at n — Cardwell's
// E[d_ss] = (1 − (1−p)^n)·(1/p) generalization.
func slowStartDataBeforeLoss(n float64, p float64) float64 {
	if p <= 0 {
		return n
	}
	return math.Min(n, (1-math.Pow(1-p, n))/p)
}

// ShortFlowTime returns the expected completion time in seconds of a
// transfer of n packets under the model parameters pr and loss rate p.
// It accounts for slow start from an initial window of one packet, the
// receiver window cap, the expected cost of the first loss indication,
// and steady-state transfer of the remainder.
func ShortFlowTime(n int, p float64, pr Params) float64 {
	if n <= 0 {
		return 0
	}
	p = clampP(p)
	b := pr.ackRatio()
	gamma := 1 + 1/b
	nf := float64(n)

	// Phase 1: slow start until the first loss (or all data sent).
	dss := slowStartDataBeforeLoss(nf, p)
	var tss float64
	wCap := math.Inf(1)
	if pr.windowLimited() {
		wCap = pr.Wm
	}
	// Rounds to either finish dss or hit the window cap.
	rToCap := math.Log(wCap) / math.Log(gamma)
	rNeeded := SlowStartRounds(dss, 1, gamma)
	if rNeeded <= rToCap {
		tss = pr.RTT * rNeeded
	} else {
		// Grow to the cap, then send the rest at Wm per round.
		dAtCap := (math.Pow(gamma, rToCap) - 1) / (gamma - 1)
		rest := dss - dAtCap
		tss = pr.RTT * (rToCap + math.Ceil(rest/wCap))
	}
	if dss >= nf && p == 0 {
		return tss
	}
	// Probability the transfer finishes without any loss at all.
	pNoLoss := math.Pow(1-p, nf)
	if dss >= nf {
		// Data fits in the pre-loss slow-start phase in expectation;
		// add the loss cost weighted by the chance a loss occurs.
		return tss + (1-pNoLoss)*firstLossCost(p, pr)
	}

	// Phase 2: the first loss indication.
	tloss := firstLossCost(p, pr)

	// Phase 3: the remainder at steady state.
	rate := SendRateFull(p, pr)
	var tca float64
	if rate > 0 && !math.IsInf(rate, 0) {
		tca = (nf - dss) / rate
	}
	return tss + tloss + tca
}

// firstLossCost returns the expected time consumed by the first loss
// indication: Q̂(w)·E[Z^TO] for a timeout, one RTT for a fast retransmit,
// evaluated at the slow-start window scale E[W].
func firstLossCost(p float64, pr Params) float64 {
	if p <= 0 {
		return 0
	}
	b := pr.ackRatio()
	w := EW(p, b)
	if pr.windowLimited() && w > pr.Wm {
		w = pr.Wm
	}
	q := QHat(p, w)
	return q*EZTO(p, pr.T0) + (1-q)*pr.RTT
}

// ShortFlowRate returns the effective rate (packets per second) of an
// n-packet transfer: n / ShortFlowTime. It approaches SendRateFull as
// n grows and drops toward 1/(RTT·log) for tiny flows — the "short flows
// never reach steady state" effect.
func ShortFlowRate(n int, p float64, pr Params) float64 {
	t := ShortFlowTime(n, p, pr)
	if t <= 0 {
		return math.Inf(1)
	}
	return float64(n) / t
}
