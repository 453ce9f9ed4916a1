package reno

import (
	"math"

	"pftk/internal/pkt"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

// SenderConfig controls the saturated ("infinite source") Reno sender.
type SenderConfig struct {
	// Variant selects the protocol flavor; the zero value is standard
	// Reno.
	Variant Variant
	// RWnd is the receiver's advertised window Wm in packets; the
	// in-flight data never exceeds min(cwnd, RWnd). Values < 1 default
	// to 64.
	RWnd int
	// InitialCwnd is the initial congestion window (packets); values
	// < 1 default to 1.
	InitialCwnd float64
	// InitialSsthresh defaults to the advertised window when <= 0.
	InitialSsthresh float64
	// MinRTO, MaxRTO and Tick configure the RTO estimator; MinRTO
	// defaults to 1 s (RFC 6298), Tick to 0.5 s (BSD coarse timer) when
	// both are zero-valued only if UseDefaults is kept.
	MinRTO, MaxRTO, Tick float64
	// TraceCwnd, when set, logs a KindCwndChange record on every
	// congestion-window update (verbose; intended for unit tests).
	TraceCwnd bool
	// TotalPackets, when positive, makes the transfer finite: the
	// sender transmits packets 1..TotalPackets and completes once all
	// are acknowledged. Zero keeps the paper's saturated
	// infinite-source sender.
	TotalPackets uint64
	// FlowID stamps outgoing data packets so shared links can attribute
	// them per flow; ACKs stamped with a different flow ID are ignored.
	// Single-flow runs leave it 0.
	FlowID int32
	// Metrics holds optional observability handles; the zero value
	// disables collection (see Metrics).
	Metrics Metrics
}

func (c SenderConfig) normalize() SenderConfig {
	c.Variant = c.Variant.normalize()
	if c.RWnd < 1 {
		c.RWnd = 64
	}
	if c.InitialCwnd < 1 {
		c.InitialCwnd = 1
	}
	if c.InitialSsthresh <= 0 {
		c.InitialSsthresh = float64(c.RWnd)
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 1.0
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 240
	}
	return c
}

// SenderStats aggregates ground-truth counters for a run.
type SenderStats struct {
	PacketsSent   int // original transmissions
	Retransmits   int // all retransmissions
	FastRetx      int // fast retransmits (subset of Retransmits)
	TimeoutRetx   int // timeout retransmissions (subset of Retransmits)
	TDEvents      int // triple-duplicate loss indications
	TimeoutEvents int // timeout loss indications (timer fires)
	// TimeoutsByBackoff[k] counts timeouts fired with backoff exponent
	// k: index 0 are "single" timeouts (duration T0), 1 doubles, etc.
	TimeoutsByBackoff [16]int
	AcksReceived      int
	RTTSamples        int
}

// TotalSent returns originals plus retransmissions — the model's
// packet count N_t.
func (s SenderStats) TotalSent() int { return s.PacketsSent + s.Retransmits }

// LossIndications returns TD events plus timeout *sequences* (consecutive
// backoff timeouts count once), matching how Table II counts "Loss
// Indic." as TD + T0-column events... Note: the paper's per-column counts
// T0..T5 classify each timeout sequence by its final backoff depth; the
// analysis package reconstructs that classification from the trace.
func (s SenderStats) LossIndications() int { return s.TDEvents + s.TimeoutEvents }

// DataPath is the transmit interface the sender needs from the forward
// direction of a path; *netem.Link and *netem.REDQueueLink both satisfy
// it.
type DataPath interface {
	Send(payload pkt.Packet, deliver func(pkt.Packet))
}

// Sender is a saturated TCP Reno sender.
type Sender struct {
	cfg     SenderConfig
	eng     *sim.Engine
	forward DataPath
	toRecv  func(pkt.Packet)
	est     *RTOEstimator

	// Congestion state. Sequence numbers count packets from 1; una is
	// the lowest unacknowledged packet, sndNxt the send cursor (pulled
	// back to una after a timeout, BSD-style go-back-N), and maxNext
	// the lowest never-transmitted sequence.
	una        uint64
	sndNxt     uint64
	maxNext    uint64
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recover    uint64 // highest seq outstanding when recovery began
	backoffExp int

	// rtoTimer is a reusable handle rearmed on every ACK; rearming
	// allocates nothing (the callback is captured once in NewSender).
	rtoTimer *sim.Timer

	// RTT timing (one timed segment at a time, per BSD; Karn's rule
	// invalidates the measurement if the timed segment is
	// retransmitted).
	timedSeq    uint64
	timedAt     float64
	timedFlight int
	timedValid  bool
	timing      bool

	stats  SenderStats
	trace  *trace.Buffer
	closed bool
}

// initialTraceCap is the sender's first trace allocation: 768 records of
// 40 bytes stay under 32 KiB, the largest small-object size class, where
// 1024 would be a large object with its own zeroed span. Later growth is
// sized from the record rate once the run's stop time is known.
const initialTraceCap = 768

// NewSender builds a saturated sender that transmits over forward and
// whose ACKs arrive via OnAck. Wire the delivery side with SetDeliver (or
// use NewConnection, which does it for you).
func NewSender(eng *sim.Engine, forward DataPath, cfg SenderConfig) *Sender {
	cfg = cfg.normalize()
	s := &Sender{
		cfg:      cfg,
		eng:      eng,
		forward:  forward,
		una:      1,
		sndNxt:   1,
		maxNext:  1,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.InitialSsthresh,
		est:      NewRTOEstimator(cfg.MinRTO, cfg.MaxRTO, cfg.Tick),
		trace:    trace.NewBuffer(initialTraceCap),
	}
	s.rtoTimer = eng.NewTimer(s.onTimeout)
	return s
}

// SetDeliver sets the callback invoked at the receiver side of the
// forward path for every packet that survives it (normally the receiver's
// OnPacket).
func (s *Sender) SetDeliver(fn func(pkt.Packet)) { s.toRecv = fn }

// Start begins transmitting.
func (s *Sender) Start() { s.trySend() }

// Stop freezes the sender: no further transmissions or timer restarts.
func (s *Sender) Stop() {
	s.closed = true
	if s.rtoTimer.Stop() {
		s.cfg.Metrics.TimerCancels.Inc()
	}
}

// SetTraceStop tells the sender that its run ends at absolute engine
// time t, so trace capture can size its growth from the record rate
// instead of doubling.
func (s *Sender) SetTraceStop(t float64) { s.trace.SetStop(t) }

// Stats returns the ground-truth counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Trace returns the accumulated trace records. The slice is owned by the
// sender; copy before mutating.
func (s *Sender) Trace() trace.Trace { return s.trace.Records() }

// Cwnd returns the current congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Ssthresh returns the current slow-start threshold in packets.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// InFlight returns the number of packets between the cumulative
// acknowledgment point and the send cursor.
func (s *Sender) InFlight() int { return int(s.sndNxt - s.una) }

// Estimator exposes the RTO estimator (read-mostly; used by the harness
// to report the effective T0).
func (s *Sender) Estimator() *RTOEstimator { return s.est }

// BaseRTO returns the current first-timeout duration — the live T0.
func (s *Sender) BaseRTO() float64 { return s.est.RTO() }

//pftk:hotpath
func (s *Sender) log(r trace.Record) {
	r.Time = s.eng.Now()
	s.trace.Append(r)
}

// sendWindow returns the current usable window in whole packets.
func (s *Sender) sendWindow() int {
	w := math.Floor(s.cwnd)
	if rw := float64(s.cfg.RWnd); w > rw {
		w = rw
	}
	if w < 1 {
		w = 1
	}
	return int(w)
}

// trySend advances the send cursor while the window allows. Sequences
// below maxNext have been transmitted before (the cursor was pulled back
// by a timeout) and count as timeout-driven retransmissions.
func (s *Sender) trySend() {
	if s.closed {
		return
	}
	for s.InFlight() < s.sendWindow() {
		seq := s.sndNxt
		if s.cfg.TotalPackets > 0 && seq > s.cfg.TotalPackets {
			break // finite transfer: nothing left to send
		}
		s.sndNxt++
		if seq < s.maxNext {
			s.resend(seq)
		} else {
			s.maxNext = seq + 1
			s.sendNew(seq)
		}
	}
}

// Complete reports whether a finite transfer has been fully
// acknowledged. It is always false for the saturated sender.
func (s *Sender) Complete() bool {
	return s.cfg.TotalPackets > 0 && s.una > s.cfg.TotalPackets
}

func (s *Sender) sendNew(seq uint64) {
	s.stats.PacketsSent++
	s.log(trace.Record{Kind: trace.KindSend, Seq: seq})
	if !s.timing {
		s.timing = true
		s.timedSeq = seq
		s.timedAt = s.eng.Now()
		s.timedFlight = s.InFlight()
		s.timedValid = true
	}
	s.forward.Send(pkt.Packet{Seq: seq, Flow: s.cfg.FlowID}, s.toRecv)
	if !s.rtoTimer.Pending() {
		s.restartRTO()
	}
}

// resend retransmits a pulled-back sequence during post-timeout go-back-N
// recovery.
func (s *Sender) resend(seq uint64) {
	s.stats.Retransmits++
	s.stats.TimeoutRetx++
	s.log(trace.Record{Kind: trace.KindRetransmit, Seq: seq, Val: 1})
	if s.timing && seq == s.timedSeq {
		s.timedValid = false
	}
	s.forward.Send(pkt.Packet{Seq: seq, Retx: true, Flow: s.cfg.FlowID}, s.toRecv)
	if !s.rtoTimer.Pending() {
		s.restartRTO()
	}
}

// retransmit resends packet seq. timeout distinguishes RTO-driven
// retransmissions from fast retransmits.
func (s *Sender) retransmit(seq uint64, timeout bool) {
	s.stats.Retransmits++
	val := 0.0
	if timeout {
		val = 1
		s.stats.TimeoutRetx++
	} else {
		s.stats.FastRetx++
	}
	s.log(trace.Record{Kind: trace.KindRetransmit, Seq: seq, Val: val})
	if s.timing && seq == s.timedSeq {
		// Karn's rule: a retransmitted segment yields no RTT sample.
		s.timedValid = false
	}
	s.forward.Send(pkt.Packet{Seq: seq, Retx: true, Flow: s.cfg.FlowID}, s.toRecv)
}

// effectiveRTO applies exponential backoff with the variant's cap. The
// factor is built by bit shift — exactly math.Pow(2, exp) for the small
// integer exponents backoff uses, without the transcendental call on the
// per-ACK timer-rearm path.
func (s *Sender) effectiveRTO() float64 {
	exp := s.backoffExp
	if max := s.cfg.Variant.MaxBackoffExp; exp > max {
		exp = max
	}
	return s.est.RTO() * float64(uint64(1)<<uint(exp))
}

func (s *Sender) restartRTO() {
	if s.rtoTimer.Stop() {
		s.cfg.Metrics.TimerCancels.Inc()
	}
	if s.closed || s.InFlight() == 0 {
		return
	}
	s.rtoTimer.Reset(s.effectiveRTO())
}

// onTimeout handles RTO expiry: collapse the window, back the timer off,
// and retransmit the oldest outstanding packet.
func (s *Sender) onTimeout() {
	if s.closed || s.InFlight() == 0 {
		return
	}
	s.stats.TimeoutEvents++
	idx := s.backoffExp
	if idx >= len(s.stats.TimeoutsByBackoff) {
		idx = len(s.stats.TimeoutsByBackoff) - 1
	}
	s.stats.TimeoutsByBackoff[idx]++
	s.cfg.Metrics.TimeoutFires.Inc()
	s.cfg.Metrics.Backoff.Observe(float64(s.backoffExp))
	if s.backoffExp == 0 {
		// Depth-0 fires open a new timeout sequence — the unit Table II
		// counts as one loss indication.
		s.cfg.Metrics.TimeoutSeqs.Inc()
	}
	s.log(trace.Record{Kind: trace.KindTimeoutFired, Val: float64(s.backoffExp)})

	s.ssthresh = math.Max(float64(s.InFlight())/2, 2)
	s.setCwnd(1)
	s.dupAcks = 0
	s.inRecovery = false
	if s.backoffExp < s.cfg.Variant.MaxBackoffExp {
		s.backoffExp++
	}
	s.timedValid = false
	s.timing = false
	// BSD-style go-back-N: pull the send cursor back to the
	// acknowledgment point; the window (now one packet) governs how
	// fast the outstanding data is retransmitted.
	s.sndNxt = s.una
	s.trySend()
	s.restartRTO()
}

func (s *Sender) setCwnd(w float64) {
	if w < 1 {
		w = 1
	}
	if w-s.cwnd == 0 {
		return // no-op update: suppress a duplicate trace record
	}
	s.cwnd = w
	s.cfg.Metrics.Cwnd.Observe(w)
	if s.cfg.TraceCwnd {
		s.log(trace.Record{Kind: trace.KindCwndChange, Val: w})
	}
}

// OnAck handles one arriving cumulative acknowledgment. Pass it as the
// reverse link's delivery callback. Non-ACK packets and ACKs stamped
// with another flow's ID are ignored.
//
//pftk:hotpath
func (s *Sender) OnAck(p pkt.Packet) {
	if p.Kind != pkt.Ack || p.Flow != s.cfg.FlowID || s.closed {
		return
	}
	ack := p.Seq
	s.stats.AcksReceived++
	s.cfg.Metrics.Acks.Inc()
	s.log(trace.Record{Kind: trace.KindAck, Ack: ack})
	switch {
	case ack > s.una:
		s.onNewAck(ack)
	case ack == s.una && s.InFlight() > 0:
		s.onDupAck()
	}
}

func (s *Sender) onNewAck(ack uint64) {
	// RTT sample per Karn: only if the timed segment is covered and was
	// never retransmitted.
	if s.timing && ack > s.timedSeq {
		if s.timedValid {
			sample := s.eng.Now() - s.timedAt
			s.est.Sample(sample)
			s.stats.RTTSamples++
			s.cfg.Metrics.RTT.Observe(sample)
			s.log(trace.Record{Kind: trace.KindRoundSample, Seq: uint64(s.timedFlight), Val: sample})
		}
		s.timing = false
	}
	s.backoffExp = 0
	s.una = ack
	if s.sndNxt < s.una {
		// The cumulative ACK can jump past the pulled-back cursor when
		// the receiver had buffered out-of-order data.
		s.sndNxt = s.una
	}
	wasRecovery := s.inRecovery
	if s.inRecovery {
		if s.cfg.Variant.NewReno && ack <= s.recover {
			// NewReno partial ACK (RFC 6582): the ACK advanced but
			// holes remain below the recovery point. Retransmit the
			// next hole immediately and stay in recovery.
			s.retransmit(s.una, false)
			s.setCwnd(math.Max(s.cwnd-float64(ack-s.una)+1, 1))
			s.restartRTO()
			return
		}
		// Leave recovery (classic Reno: on any ACK of new data;
		// NewReno: once the recovery point is covered), deflating the
		// window to ssthresh.
		s.inRecovery = false
		s.setCwnd(s.ssthresh)
	}
	s.dupAcks = 0
	if !wasRecovery {
		if s.cwnd < s.ssthresh {
			s.setCwnd(s.cwnd + 1) // slow start
		} else {
			s.setCwnd(s.cwnd + 1/s.cwnd) // congestion avoidance
		}
	}
	s.restartRTO()
	s.trySend()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRecovery {
		// Window inflation: each duplicate ACK signals a departure.
		s.setCwnd(s.cwnd + 1)
		s.trySend()
		return
	}
	if s.dupAcks != s.cfg.Variant.DupThreshold {
		return
	}
	// Fast retransmit: a TD loss indication.
	s.stats.TDEvents++
	s.cfg.Metrics.IndicationsTD.Inc()
	s.log(trace.Record{Kind: trace.KindTDIndication, Seq: s.una})
	s.ssthresh = math.Max(float64(s.InFlight())/2, 2)
	s.retransmit(s.una, false)
	if s.cfg.Variant.Tahoe {
		s.setCwnd(1)
		s.dupAcks = 0
	} else {
		s.inRecovery = true
		s.recover = s.sndNxt - 1
		s.setCwnd(s.ssthresh + float64(s.cfg.Variant.DupThreshold))
	}
	s.restartRTO()
}
