package netem

import (
	"math"

	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// RED implements Random Early Detection (Floyd & Jacobson, 1993 — the
// paper's reference [4]) as a drop decision usable in front of a link
// queue: it tracks an exponentially-weighted moving average of the queue
// length and drops arriving packets with a probability that rises linearly
// between a minimum and maximum threshold, spacing drops out instead of
// clustering them at buffer overflow.
//
// Relative to drop-tail, RED de-correlates losses within a window, which
// shifts a TCP flow's loss indications from timeouts toward fast
// retransmits — an effect the experiment harness quantifies (the
// "lossmodels" study).
type RED struct {
	// MinTh and MaxTh are the average-queue thresholds in packets.
	MinTh, MaxTh float64
	// MaxP is the drop probability at MaxTh (classic value: 0.1).
	MaxP float64
	// Wq is the EWMA weight for the average queue (classic value:
	// 0.002).
	Wq float64
	// RNG drives the probabilistic drops.
	RNG *sim.RNG

	avg   float64
	count int // packets since the last drop, for drop spreading
}

// NewRED returns a RED controller with the classic parameters for a queue
// of the given capacity: MinTh = cap/4 (at least 1), MaxTh = 3·cap/4,
// MaxP = 0.1, Wq = 0.002.
func NewRED(capacity int, rng *sim.RNG) *RED {
	minTh := float64(capacity) / 4
	if minTh < 1 {
		minTh = 1
	}
	return &RED{
		MinTh: minTh,
		MaxTh: 3 * float64(capacity) / 4,
		MaxP:  0.1,
		Wq:    0.002,
		RNG:   rng,
	}
}

// Avg returns the current average queue estimate.
func (r *RED) Avg() float64 { return r.avg }

// ShouldDrop updates the average with the instantaneous queue length q
// (in packets, including the packet in service) and decides the fate of
// the arriving packet.
func (r *RED) ShouldDrop(q int) bool {
	r.avg = (1-r.Wq)*r.avg + r.Wq*float64(q)
	switch {
	case r.avg < r.MinTh:
		r.count = 0
		return false
	case r.avg >= r.MaxTh:
		r.count = 0
		return true
	default:
		// Linear ramp with Floyd's count correction, which spaces
		// drops roughly uniformly.
		pb := r.MaxP * (r.avg - r.MinTh) / (r.MaxTh - r.MinTh)
		pa := pb / math.Max(1-float64(r.count)*pb, 1e-9)
		r.count++
		if r.RNG.Bool(pa) {
			r.count = 0
			return true
		}
		return false
	}
}

// REDQueueLink wraps a Link with a RED controller: arriving packets first
// pass the RED decision against the link's current queue occupancy, then
// enter the normal drop-tail queue (which still bounds the worst case).
type REDQueueLink struct {
	*Link
	RED *RED

	redDrops int
}

// NewREDLink builds a rate-limited link whose queue is managed by RED.
func NewREDLink(eng *sim.Engine, cfg LinkConfig, rng *sim.RNG) *REDQueueLink {
	return &REDQueueLink{
		Link: NewLink(eng, cfg),
		RED:  NewRED(cfg.QueueCap, rng),
	}
}

// REDDrops returns the number of packets dropped by the RED decision
// (excluding drop-tail overflow).
func (l *REDQueueLink) REDDrops() int { return l.redDrops }

// Send offers a packet through RED and then the underlying link.
func (l *REDQueueLink) Send(payload pkt.Packet, deliver func(pkt.Packet)) {
	occupancy := l.QueueLen()
	if l.busy {
		occupancy++
	}
	if l.RED.ShouldDrop(occupancy) {
		l.redDrops++
		l.stats.Offered++
		l.stats.RandomDrops++
		if fs := l.flowEntry(payload); fs != nil {
			fs.Offered++
			fs.RandomDrops++
		}
		return
	}
	l.Link.Send(payload, deliver)
}
