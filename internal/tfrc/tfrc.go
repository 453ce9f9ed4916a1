// Package tfrc implements equation-based congestion control in the style
// of TFRC (Floyd et al., later RFC 5348) — the application the paper's
// introduction motivates: a non-TCP flow that measures its loss event rate
// and round-trip time and paces itself at the rate the PFTK formula says a
// TCP connection would achieve, making it safe to run alongside TCP.
//
// The implementation follows the RFC's structure on top of this
// repository's substrates:
//
//   - the receiver detects loss events (gaps in the sequence space, merged
//     within one RTT) and maintains the average loss interval over the
//     last eight intervals with the RFC's decaying weights;
//   - feedback carries the loss-event rate and receive rate back once per
//     RTT;
//   - the sender sets its pace to the paper's approximate model (eq. 33)
//     with t_RTO = 4·RTT, doubling when no loss has been seen.
package tfrc

import (
	"math"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// lossIntervalWeights are the RFC 5348 weights for the average loss
// interval (most recent first).
var lossIntervalWeights = []float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}

// LossHistory tracks loss intervals (packet counts between loss events)
// and computes the loss event rate by the average-loss-interval method.
type LossHistory struct {
	// intervals[0] is the open (current) interval; intervals[1..] are
	// closed, most recent first. At most len(lossIntervalWeights)+1
	// entries are kept.
	intervals []float64
}

// NewLossHistory returns an empty history.
func NewLossHistory() *LossHistory {
	return &LossHistory{intervals: []float64{0}}
}

// OnPacket records one received (or inferred-in-flight) packet in the
// current interval.
func (h *LossHistory) OnPacket() {
	h.intervals[0]++
}

// OnLossEvent closes the current interval and opens a new one.
func (h *LossHistory) OnLossEvent() {
	h.intervals = append([]float64{0}, h.intervals...)
	if max := len(lossIntervalWeights) + 1; len(h.intervals) > max {
		h.intervals = h.intervals[:max]
	}
}

// Events returns the number of closed intervals (loss events seen).
func (h *LossHistory) Events() int { return len(h.intervals) - 1 }

// AverageInterval returns the weighted average loss interval per RFC 5348,
// including the open interval when that raises the average (so a long
// loss-free stretch lifts the estimate promptly). Returns 0 when no loss
// event has occurred.
func (h *LossHistory) AverageInterval() float64 {
	n := len(h.intervals) - 1
	if n <= 0 {
		return 0
	}
	avg := func(vals []float64) float64 {
		var s, w float64
		for i, v := range vals {
			if i >= len(lossIntervalWeights) {
				break
			}
			s += lossIntervalWeights[i] * v
			w += lossIntervalWeights[i]
		}
		if w == 0 {
			return 0
		}
		return s / w
	}
	closed := avg(h.intervals[1:])
	withOpen := avg(h.intervals[:len(h.intervals)-1])
	return math.Max(closed, withOpen)
}

// LossEventRate returns p = 1 / average loss interval (0 before any loss).
func (h *LossHistory) LossEventRate() float64 {
	ai := h.AverageInterval()
	if ai <= 0 {
		return 0
	}
	return 1 / ai
}

// On the wire a TFRC flow uses two pkt.Packet kinds: pkt.RateData for
// the paced datagrams (Seq, Sent) and pkt.Feedback for the once-per-RTT
// receiver report (Sent echoing the send timestamp of the most recent
// packet for RTT measurement). The report's loss-event rate and receive
// rate do not ride in the packet, which keeps pkt.Packet small enough
// for registers: the receiver files them in the flow's report table and
// the feedback packet carries the table index in Seq. The sender reads
// back exactly the report the packet names, whichever reports were lost,
// duplicated or overtaken on the way.

// reportSlots is the size of a flow's report table, a power of two. The
// receiver writes report i to slot i mod reportSlots, so a report stays
// readable until reportSlots later reports have been issued. Reports go
// out at most once per feedback interval (at least FeedbackRTTs times
// 100 ms) and spend about half an RTT in flight, so a live report is
// never overwritten in practice; one that is, reportSlots intervals
// late, is dropped as stale, as if lost.
const reportSlots = 64

// report is one receiver report in the table.
type report struct {
	idx  uint64  // report index, from 1
	p    float64 // loss-event rate
	rate float64 // receive rate, pkts/s
}

// Config parameterizes a TFRC flow.
type Config struct {
	// InitialRate is the starting pace in packets per second (default
	// 2).
	InitialRate float64
	// MaxRate caps the pace (default 10000 pkts/s).
	MaxRate float64
	// FeedbackRTTs is the feedback interval in RTTs (default 1).
	FeedbackRTTs float64
	// B is the delayed-ACK factor fed to the throughput equation
	// (default 2, TFRC commonly uses 1; the paper's formula takes it as
	// a parameter).
	B int
	// FlowID stamps outgoing packets so shared links can attribute them
	// per flow; packets stamped with another flow's ID are ignored.
	FlowID int32
}

func (c Config) normalize() Config {
	if c.InitialRate <= 0 {
		c.InitialRate = 2
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 10000
	}
	if c.FeedbackRTTs <= 0 {
		c.FeedbackRTTs = 1
	}
	if c.B < 1 {
		c.B = 2
	}
	return c
}

// Link is the transmit interface a flow needs from each path direction;
// *netem.Link and *netem.REDQueueLink both satisfy it.
type Link interface {
	Send(payload pkt.Packet, deliver func(pkt.Packet))
}

// Flow is a rate-based sender/receiver pair over an emulated path.
type Flow struct {
	cfg      Config
	eng      *sim.Engine
	fwd, rev Link

	// Sender state.
	rate    float64
	nextSeq uint64
	sent    int
	stopped bool

	// Receiver state.
	history        *LossHistory
	expected       uint64
	lossEventStart float64
	haveLossEvent  bool
	received       int
	recvInWin      int
	lastFbTime     float64
	rttEst         float64

	// Reports in flight, indexed by report index mod reportSlots.
	reports    [reportSlots]report
	nextReport uint64

	// Diagnostics: rate trajectory (time, pace) sampled at each update.
	RateLog []RatePoint
}

// RatePoint is one sample of the sender's pace.
type RatePoint struct {
	Time float64
	Rate float64
}

// NewFlow builds a TFRC flow over path on eng.
func NewFlow(eng *sim.Engine, path *netem.Path, cfg Config) *Flow {
	return NewFlowOnLinks(eng, path.Forward, path.Reverse, cfg)
}

// NewFlowOnLinks builds a TFRC flow over explicit forward and reverse
// links — used to share a bottleneck link with other flows.
func NewFlowOnLinks(eng *sim.Engine, fwd, rev Link, cfg Config) *Flow {
	f := &Flow{
		cfg:     cfg.normalize(),
		eng:     eng,
		fwd:     fwd,
		rev:     rev,
		history: NewLossHistory(),
	}
	f.rate = f.cfg.InitialRate
	return f
}

// Rate returns the current pace in packets per second.
func (f *Flow) Rate() float64 { return f.rate }

// Sent returns the number of packets transmitted.
func (f *Flow) Sent() int { return f.sent }

// Received returns the number of packets that reached the receiver.
func (f *Flow) Received() int { return f.received }

// LossEventRate returns the receiver's current estimate.
func (f *Flow) LossEventRate() float64 { return f.history.LossEventRate() }

// Start begins pacing packets and running the feedback loop.
func (f *Flow) Start() {
	f.schedulePacket()
}

// Stop halts the flow.
func (f *Flow) Stop() { f.stopped = true }

func (f *Flow) schedulePacket() {
	if f.stopped {
		return
	}
	gap := 1 / f.rate
	f.eng.After(gap, func() {
		if f.stopped {
			return
		}
		f.nextSeq++
		f.sent++
		p := pkt.Packet{Seq: f.nextSeq, Sent: f.eng.Now(), Kind: pkt.RateData, Flow: f.cfg.FlowID}
		f.fwd.Send(p, f.onReceive)
		f.schedulePacket()
	})
}

// onReceive is the receiver side: loss-event detection and periodic
// feedback.
func (f *Flow) onReceive(p pkt.Packet) {
	if p.Kind != pkt.RateData || p.Flow != f.cfg.FlowID {
		return
	}
	now := f.eng.Now()
	f.received++
	f.recvInWin++
	f.history.OnPacket()

	if p.Seq > f.expected+1 {
		// Gap: one or more packets lost. Per RFC 5348, losses within
		// one RTT of a loss event's *start* belong to that event;
		// later losses begin a new one.
		rtt := f.rttEst
		if rtt <= 0 {
			rtt = 0.1
		}
		if !f.haveLossEvent || now-f.lossEventStart > rtt {
			f.history.OnLossEvent()
			f.haveLossEvent = true
			f.lossEventStart = now
		}
	}
	if p.Seq > f.expected {
		f.expected = p.Seq
	}

	// Feedback once per FeedbackRTTs·RTT (bootstraps at 100 ms).
	interval := f.cfg.FeedbackRTTs * math.Max(f.rttEst, 0.1)
	if now-f.lastFbTime >= interval {
		win := now - f.lastFbTime
		f.nextReport++
		f.reports[f.nextReport&(reportSlots-1)] = report{
			idx:  f.nextReport,
			p:    f.history.LossEventRate(),
			rate: float64(f.recvInWin) / win,
		}
		f.lastFbTime = now
		f.recvInWin = 0
		f.rev.Send(pkt.Packet{Seq: f.nextReport, Sent: p.Sent, Flow: f.cfg.FlowID, Kind: pkt.Feedback}, f.onFeedback)
	}
}

// onFeedback is the sender side: apply the throughput equation.
func (f *Flow) onFeedback(fb pkt.Packet) {
	if fb.Kind != pkt.Feedback || fb.Flow != f.cfg.FlowID || f.stopped {
		return
	}
	rep, ok := f.report(fb.Seq)
	if !ok {
		return
	}
	// RTT sample: now - send time of the echoed packet (the feedback
	// path adds the reverse delay, as in real TFRC).
	sample := f.eng.Now() - fb.Sent
	if sample > 0 {
		if f.rttEst == 0 {
			f.rttEst = sample
		} else {
			f.rttEst = 0.9*f.rttEst + 0.1*sample
		}
	}
	var target float64
	if rep.p <= 0 {
		// No loss seen yet: double per feedback interval, bounded by
		// twice the receive rate (RFC 5348 slow start).
		target = math.Min(2*f.rate, 2*math.Max(rep.rate, 1))
	} else {
		pr := core.Params{RTT: math.Max(f.rttEst, 1e-3), T0: 4 * math.Max(f.rttEst, 1e-3), Wm: 0, B: f.cfg.B}
		target = core.SendRateApprox(rep.p, pr)
		// RFC 5348 bounds the send rate by twice the reported receive
		// rate to stay responsive to reductions.
		target = math.Min(target, 2*math.Max(rep.rate, 0.5))
	}
	f.rate = math.Min(math.Max(target, 0.5), f.cfg.MaxRate)
	f.RateLog = append(f.RateLog, RatePoint{Time: f.eng.Now(), Rate: f.rate})
}

// report returns the receiver report with index idx, or false once it has
// been overwritten.
func (f *Flow) report(idx uint64) (report, bool) {
	r := f.reports[idx&(reportSlots-1)]
	return r, r.idx == idx
}
