package hosts

import (
	"pftk/internal/analysis"
	"pftk/internal/reno"
)

// Calibration makes a pair's emulated path reproduce the paper's
// *measured* loss-indication rate rather than merely using it as the raw
// drop probability. The two differ because one loss outage can produce
// several loss indications (a fast retransmit followed by timeouts for
// the remaining holes), exactly as on the real Internet paths — the
// paper's p column is the post-hoc measurement, so the drop process must
// be fitted to it.

// CalibrateOptions controls the fitting loop.
type CalibrateOptions struct {
	// Iterations is the number of fitting rounds (default 5).
	Iterations int
	// ProbeDuration is the length of each probe run in simulated
	// seconds (default 900).
	ProbeDuration float64
}

func (o CalibrateOptions) normalize() CalibrateOptions {
	if o.Iterations <= 0 {
		o.Iterations = 5
	}
	if o.ProbeDuration <= 0 {
		o.ProbeDuration = 900
	}
	return o
}

// probe runs a probe connection and returns the loss-indication rate and
// TD fraction measured the way Table II measures them: TD events plus
// timeout *sequences* (a backoff run counts once), divided by packets
// sent.
func probe(p Pair, dur float64) (pRate, tdFrac float64) {
	res := reno.RunConnection(p.ConnConfig(0xCA11B8), dur)
	events := analysis.GroundTruthLossEvents(res.Trace)
	s := analysis.Summarize(res.Trace, events)
	if s.LossIndications > 0 {
		tdFrac = float64(s.TD) / float64(s.LossIndications)
	}
	return s.P, tdFrac
}

// Calibrate returns a copy of the pair whose drop process has been fitted
// so that a simulated trace reproduces the paper's published
// loss-indication rate (via DropRate) and TD-vs-timeout mix (via the
// outage duration).
func (p Pair) Calibrate(o CalibrateOptions) Pair {
	o = o.normalize()
	target := p.P()
	if target <= 0 {
		return p
	}
	targetTD := p.TDFraction()
	cal := p
	cal.BurstDurOverride = cal.BurstDur()
	for i := 0; i < o.Iterations; i++ {
		got, gotTD := probe(cal, o.ProbeDuration)
		if got <= 0 {
			// No losses at all: raise the rate and retry.
			cal.DropRate *= 2
			continue
		}
		// Loss-rate knob: damped multiplicative update.
		ratio := target / got
		if ratio > 3 {
			ratio = 3
		}
		if ratio < 1.0/3 {
			ratio = 1.0 / 3
		}
		cal.DropRate *= ratio
		if cal.DropRate > 0.9 {
			cal.DropRate = 0.9
		}
		// Mix knob: longer outages kill fast retransmissions and push
		// the mix toward timeouts; shorter ones let fast retransmit
		// repair the loss (TD). Adjust when off by more than 0.08.
		switch {
		case gotTD < targetTD-0.08:
			cal.BurstDurOverride *= 0.7
		case gotTD > targetTD+0.08:
			cal.BurstDurOverride *= 1.4
		}
		if min := 0.05 * cal.RTT; cal.BurstDurOverride < min {
			cal.BurstDurOverride = min
		}
		if max := 4 * cal.RTT; cal.BurstDurOverride > max {
			cal.BurstDurOverride = max
		}
	}
	return cal
}

// fit is one committed calibration: the fitted drop-start rate and
// outage duration of the known pair with the given name.
type fit struct {
	name               string
	dropRate, burstDur float64
}

// knownPairs returns every pair definition with a committed fit: the 24
// Table II pairs, then the two Fig. 8 pairs without a Table II row.
func knownPairs() []Pair {
	pairs := TableII()
	for _, p := range Fig8Pairs() {
		if _, ok := PairByName(p.Name()); !ok {
			pairs = append(pairs, p)
		}
	}
	return pairs
}

// fittedPairs maps each known pair definition, compared field for
// field, to its fit under the default options, from the generated
// fittedTable.
var fittedPairs = indexFits(fittedTable)

func indexFits(table []fit) map[Pair]Pair {
	fits := make(map[string]fit, len(table))
	for _, f := range table {
		fits[f.name] = f
	}
	out := make(map[Pair]Pair, len(table))
	for _, p := range knownPairs() {
		if f, ok := fits[p.Name()]; ok {
			cal := p
			cal.DropRate, cal.BurstDurOverride = f.dropRate, f.burstDur
			out[p] = cal
		}
	}
	return out
}

// CalibratedPair returns the pair fitted to its published loss rate.
// For a known pair definition (see knownPairs) under options that
// normalize to the defaults, it returns the committed fit, which equals
// p.Calibrate(o) bit for bit; any other call runs p.Calibrate(o).
func CalibratedPair(p Pair, o CalibrateOptions) Pair {
	if o.normalize() == (CalibrateOptions{}).normalize() {
		if cal, ok := fittedPairs[p]; ok {
			return cal
		}
	}
	return p.Calibrate(o)
}
