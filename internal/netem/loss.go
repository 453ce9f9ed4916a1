// Package netem emulates the Internet paths of the paper's measurement
// campaign: unidirectional links with finite rate, propagation delay and
// drop-tail queues, random and bursty loss processes, and the "modem
// with a dedicated deep buffer" pathology of Fig. 11.
//
// It substitutes for the 1997-98 Internet between the Table I hosts: the
// PFTK model consumes only (p, RTT, T0, Wm), so a path that reproduces a
// pair's loss process and delay statistics exercises the same validation
// surface as the original measurements.
package netem

import (
	"fmt"

	"pftk/internal/sim"
)

// LossModel decides the fate of each packet offered to a link. Implementations
// may be stateful; they are driven from a single goroutine by the
// simulation and need no locking.
type LossModel interface {
	// Drop reports whether the packet offered at simulation time now
	// should be dropped.
	Drop(now float64) bool
}

// NoLoss is a LossModel that never drops.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(float64) bool { return false }

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct {
	P   float64
	RNG *sim.RNG
}

// NewBernoulli returns an i.i.d. loss process with drop probability p.
func NewBernoulli(p float64, rng *sim.RNG) *Bernoulli {
	return &Bernoulli{P: p, RNG: rng}
}

// Drop implements LossModel.
func (b *Bernoulli) Drop(float64) bool { return b.RNG.Bool(b.P) }

// GilbertElliott is the classic two-state bursty loss process: the channel
// alternates between a Good and a Bad state with per-packet transition
// probabilities, and drops with a state-dependent probability. It captures
// the temporal dependence in Internet packet loss reported by Yajnik et
// al. [23], which motivates the paper's correlated-loss assumption.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are per-packet transition probabilities.
	PGoodToBad, PBadToGood float64
	// DropGood and DropBad are loss probabilities within each state.
	DropGood, DropBad float64
	RNG               *sim.RNG
	bad               bool
}

// NewGilbertElliott returns a bursty loss process. A common
// parameterization for mean loss p with mean burst length L is
// PGoodToBad = p/(L(1-p)), PBadToGood = 1/L, DropBad = 1, DropGood = 0.
func NewGilbertElliott(pGB, pBG, dropGood, dropBad float64, rng *sim.RNG) *GilbertElliott {
	return &GilbertElliott{
		PGoodToBad: pGB, PBadToGood: pBG,
		DropGood: dropGood, DropBad: dropBad, RNG: rng,
	}
}

// GilbertElliottForLossRate builds a GE process with aggregate loss rate p
// and mean loss-burst length burst (packets).
func GilbertElliottForLossRate(p, burst float64, rng *sim.RNG) *GilbertElliott {
	if burst < 1 {
		burst = 1
	}
	if p >= 1 {
		p = 0.999
	}
	return NewGilbertElliott(p/(burst*(1-p)), 1/burst, 0, 1, rng)
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(float64) bool {
	if g.bad {
		if g.RNG.Bool(g.PBadToGood) {
			g.bad = false
		}
	} else if g.RNG.Bool(g.PGoodToBad) {
		g.bad = true
	}
	if g.bad {
		return g.RNG.Bool(g.DropBad)
	}
	return g.RNG.Bool(g.DropGood)
}

// Bad reports whether the process is currently in the Bad state (exported
// for tests).
func (g *GilbertElliott) Bad() bool { return g.bad }

// TimedBurst is an outage-style loss process: each offered packet starts
// an outage with probability P; during an outage every packet offered in
// the next Dur seconds is dropped. Long outages (around one RTT or more)
// take out the tail of a window *and* the ensuing fast retransmission,
// escalating the loss indication into a retransmission timeout — the
// mechanism behind the heavily timeout-dominated loss mixes of Table II.
// Dur well below an RTT yields isolated losses that fast retransmit
// repairs, i.e. TD indications.
type TimedBurst struct {
	// P is the per-packet probability of starting an outage.
	P float64
	// Dur is the outage duration in seconds.
	Dur float64
	RNG *sim.RNG

	until float64
	armed bool
}

// NewTimedBurst returns an outage loss process.
func NewTimedBurst(p, dur float64, rng *sim.RNG) *TimedBurst {
	return &TimedBurst{P: p, Dur: dur, RNG: rng}
}

// Drop implements LossModel.
func (tb *TimedBurst) Drop(now float64) bool {
	if tb.armed && now < tb.until {
		return true
	}
	tb.armed = false
	if tb.RNG.Bool(tb.P) {
		tb.armed = true
		tb.until = now + tb.Dur
		return true
	}
	return false
}

// Periodic drops every Nth packet deterministically — useful for exact
// expectations in tests. N <= 0 never drops.
type Periodic struct {
	N     int
	count int
}

// Drop implements LossModel.
func (p *Periodic) Drop(float64) bool {
	if p.N <= 0 {
		return false
	}
	p.count++
	if p.count == p.N {
		p.count = 0
		return true
	}
	return false
}

// Script drops exactly the packet indexes (0-based, in arrival order)
// listed in Drops — the fully deterministic loss model used by protocol
// unit tests.
type Script struct {
	Drops map[int]bool
	next  int
}

// NewScript returns a scripted loss model dropping the given 0-based
// packet indexes.
func NewScript(drops ...int) *Script {
	m := make(map[int]bool, len(drops))
	for _, d := range drops {
		m[d] = true
	}
	return &Script{Drops: m}
}

// Drop implements LossModel.
func (s *Script) Drop(float64) bool {
	i := s.next
	s.next++
	return s.Drops[i]
}

// Offered returns how many packets the script has examined.
func (s *Script) Offered() int { return s.next }

// String implements fmt.Stringer.
func (s *Script) String() string { return fmt.Sprintf("Script(%d offered)", s.next) }
