// Package analysis reimplements the paper's trace-analysis programs: the
// tools that turn a sender-side packet trace into the quantities the model
// consumes and the statistics reported in Table II and Figs. 7-10.
//
// Two pipelines are provided:
//
//   - GroundTruth* functions read the simulator's explicit loss-indication
//     records (KindTDIndication, KindTimeoutFired) — available because our
//     "hosts" are simulated.
//   - Infer* functions reconstruct the same information from wire-level
//     records only (sends, retransmissions, cumulative ACKs), exactly as
//     the paper's programs had to do from tcpdump output. The duplicate-ACK
//     threshold is a parameter so Linux-style (2 dupacks) senders are
//     analyzed correctly, mirroring Section III.
//
// Both produce []LossEvent, from which Summarize builds a Table II row and
// Intervals builds the 100-second interval decomposition used for the
// scatter plots and error metrics.
package analysis

import (
	"fmt"
	"math"

	"pftk/internal/stats"
	"pftk/internal/trace"
)

// LossEvent is one loss indication: either a triple-duplicate (TD) event
// or a timeout sequence (one or more consecutive timeouts with exponential
// backoff).
type LossEvent struct {
	// Time of the TD indication or of the first timeout of the sequence.
	Time float64
	// Timeout is true for timeout sequences, false for TD indications.
	Timeout bool
	// NumTimeouts is the length of the timeout sequence (1 = a "single"
	// timeout of duration T0, 2 = one exponential backoff, ...). Zero
	// for TD events.
	NumTimeouts int
	// FirstTimeoutDur estimates the duration of the first timeout in
	// the sequence (the sample contributing to the trace's mean T0):
	// the gap between the last transmission and the first fire. Zero
	// when not measurable.
	FirstTimeoutDur float64
}

// BackoffDepth returns NumTimeouts-1 for timeout sequences (0 = single
// timeout) and -1 for TD events.
func (e LossEvent) BackoffDepth() int {
	if !e.Timeout {
		return -1
	}
	return e.NumTimeouts - 1
}

// GroundTruthLossEvents extracts loss events from the simulator's explicit
// records. Consecutive KindTimeoutFired records form one sequence while
// the backoff exponent (Val) keeps increasing from zero; a fire with
// Val == 0 starts a new sequence.
func GroundTruthLossEvents(tr trace.Trace) []LossEvent {
	var events []LossEvent
	lastTx := math.NaN()
	var cur *LossEvent
	for _, r := range tr {
		switch r.Kind {
		case trace.KindSend, trace.KindRetransmit:
			lastTx = r.Time
		case trace.KindTDIndication:
			cur = nil
			events = append(events, LossEvent{Time: r.Time})
		case trace.KindTimeoutFired:
			if r.Val == 0 || cur == nil {
				dur := 0.0
				if !math.IsNaN(lastTx) {
					dur = r.Time - lastTx
				}
				events = append(events, LossEvent{Time: r.Time, Timeout: true, NumTimeouts: 1, FirstTimeoutDur: dur})
				cur = &events[len(events)-1]
			} else {
				cur.NumTimeouts++
			}
		case trace.KindAck:
			// A cumulative ACK for new data ends any timeout
			// sequence; the sender's Val-reset makes this mostly
			// redundant but guards against capped exponents.
			if cur != nil && r.Ack > 0 {
				// Only acks that advance matter; we cannot see una
				// here, so rely on Val==0 resets plus TD records.
				_ = r
			}
		}
	}
	return events
}

// InferLossEvents reconstructs loss events from wire-level records alone
// (KindSend, KindRetransmit, KindAck — ignoring the simulator's
// ground-truth kinds and the Val hint on retransmissions). dupThreshold is
// the sender's fast-retransmit threshold: 3 for standard Reno, 2 for the
// Linux stacks of the paper (Section III: "we account for the fact that TD
// events occur after getting only two duplicate ACKs instead of three").
func InferLossEvents(tr trace.Trace, dupThreshold int) []LossEvent {
	if dupThreshold <= 0 {
		dupThreshold = 3
	}
	// A TCP sender only ever transmits in reaction to an arriving ACK —
	// except when its retransmission timer fires. So a retransmission
	// that follows an ACK-silent gap is an RTO fire, while one emitted
	// in the same instant as an ACK arrival is recovery traffic
	// (go-back-N resends after the cursor was pulled back). A running
	// RTT estimate scales the silence threshold.
	var (
		events   []LossEvent
		lastAck  uint64
		dupRun   int
		lastTx   = math.NaN()
		lastAckT = math.NaN()
		inSeq    bool // accumulating a timeout sequence
		seqIdx   int  // index in events of the open timeout sequence
		seqSeq   uint64
		rttEst   float64
		timing   bool
		timedSeq uint64
		timedAt  float64
		timedOK  bool
	)
	ackSilence := func(now float64) float64 {
		if math.IsNaN(lastAckT) {
			return math.Inf(1) // nothing ACKed yet: any retx is an RTO
		}
		return now - lastAckT
	}
	silentGap := func() float64 {
		g := 0.5 * rttEst
		switch {
		case rttEst == 0:
			return 0.1 // no estimate yet
		case g < 0.02:
			return 0.02
		case g > 1:
			return 1
		}
		return g
	}
	for _, r := range tr {
		switch r.Kind {
		case trace.KindSend:
			if !timing {
				timing, timedSeq, timedAt, timedOK = true, r.Seq, r.Time, true
			}
			lastTx = r.Time
		case trace.KindAck:
			if timing && r.Ack > timedSeq {
				if timedOK {
					if rttEst == 0 {
						rttEst = r.Time - timedAt
					} else {
						rttEst = 0.875*rttEst + 0.125*(r.Time-timedAt)
					}
				}
				timing = false
			}
			if r.Ack > lastAck {
				lastAck = r.Ack
				dupRun = 0
				if inSeq && r.Ack > seqSeq {
					inSeq = false // sequence repaired
				}
			} else if r.Ack == lastAck {
				dupRun++
			}
			lastAckT = r.Time
		case trace.KindRetransmit:
			if timing {
				timedOK = false
			}
			silent := ackSilence(r.Time) >= silentGap()
			switch {
			case dupRun >= dupThreshold && lastAck == r.Seq && !silent:
				// Enough duplicate ACKs and ACK-triggered: a fast
				// retransmit.
				inSeq = false
				events = append(events, LossEvent{Time: r.Time})
				dupRun = 0
			case inSeq && r.Seq == seqSeq && silent:
				// Another fire of the same backoff sequence.
				events[seqIdx].NumTimeouts++
			case silent:
				// An ACK-silent retransmission: a new timeout.
				dur := 0.0
				if !math.IsNaN(lastTx) {
					dur = r.Time - lastTx
				}
				events = append(events, LossEvent{Time: r.Time, Timeout: true, NumTimeouts: 1, FirstTimeoutDur: dur})
				seqIdx = len(events) - 1
				seqSeq = r.Seq
				inSeq = true
			default:
				// Prompt (ACK-triggered) retransmission during
				// recovery: not a new loss indication.
			}
			lastTx = r.Time
		}
	}
	return events
}

// KarnRTTSamples extracts RTT samples from wire-level records following
// Karn's algorithm with the classic BSD one-segment-at-a-time timing
// discipline: when no measurement is in progress, the next original
// transmission becomes the timed segment; the first cumulative ACK
// covering it yields a sample, unless the segment was retransmitted in the
// meantime (Karn's rule), in which case the measurement is discarded. This
// matches the paper's "when calculating RTT values, we follow Karn's
// algorithm, in an attempt to minimize the impact of time-outs and
// retransmissions on the RTT estimates".
func KarnRTTSamples(tr trace.Trace) []float64 {
	var samples []float64
	var k karnTimer
	for _, r := range tr {
		if rtt, ok := k.observe(r); ok {
			samples = append(samples, rtt)
		}
	}
	return samples
}

// karnTimer is the timing state KarnRTTSamples walks a trace with, kept
// as a value so a caller that only needs an aggregate can stream the
// samples without collecting them.
type karnTimer struct {
	timing   bool
	timedSeq uint64
	timedAt  float64
	valid    bool
}

// observe advances the timer over one record and returns the RTT sample
// that record completes, if any.
func (k *karnTimer) observe(r trace.Record) (float64, bool) {
	switch r.Kind {
	case trace.KindSend:
		if !k.timing {
			k.timing = true
			k.timedSeq = r.Seq
			k.timedAt = r.Time
			k.valid = true
		}
	case trace.KindRetransmit:
		// Any retransmission voids the measurement in progress: a loss
		// episode ahead of the timed segment would otherwise leak
		// recovery time (including RTO waits) into the sample. This is
		// the conservative reading of Karn's rule the paper applies.
		if k.timing {
			k.valid = false
		}
	case trace.KindAck:
		if k.timing && r.Ack > k.timedSeq {
			k.timing = false
			return r.Time - k.timedAt, k.valid
		}
	}
	return 0, false
}

// meanKarnRTT is stats.Mean(KarnRTTSamples(tr)) without materializing the
// samples: the same in-order sum divided by the count, so the result is
// bit-identical. It returns 0 when the trace yields no sample.
func meanKarnRTT(tr trace.Trace) float64 {
	var k karnTimer
	var sum float64
	n := 0
	for _, r := range tr {
		if rtt, ok := k.observe(r); ok {
			sum += rtt
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Summary is one row of Table II.
type Summary struct {
	// Duration is the analyzed span in seconds.
	Duration float64
	// PacketsSent counts every transmission (originals plus
	// retransmissions).
	PacketsSent int
	// LossIndications is TD events plus timeout sequences.
	LossIndications int
	// TD is the number of triple-duplicate indications.
	TD int
	// TimeoutHist counts timeout sequences by length: index 0 holds
	// "single" timeouts (the paper's T0 column), index 1 doubles (T1),
	// ... index 5 is the "T5 or more" column.
	TimeoutHist [6]int
	// P is LossIndications / PacketsSent, the paper's loss-rate
	// estimate.
	P float64
	// MeanRTT is the Karn-filtered average round trip time.
	MeanRTT float64
	// MeanT0 is the average duration of a single (first) timeout.
	MeanT0 float64
	// Events are the classified loss indications the summary was built
	// from, in trace order, so one analysis pass serves both the
	// Table II row and event-level consumers (interval decomposition,
	// timeout studies).
	Events []LossEvent
}

// TimeoutSequences returns the total number of timeout sequences.
func (s Summary) TimeoutSequences() int {
	n := 0
	for _, c := range s.TimeoutHist {
		n += c
	}
	return n
}

// String renders the summary as a Table II-style row fragment.
func (s Summary) String() string {
	return fmt.Sprintf("pkts=%d loss=%d td=%d T0..T5+=%v p=%.4f rtt=%.3f t0=%.3f",
		s.PacketsSent, s.LossIndications, s.TD, s.TimeoutHist, s.P, s.MeanRTT, s.MeanT0)
}

// Summarize builds a Table II row from a trace and its loss events
// (ground-truth or inferred).
func Summarize(tr trace.Trace, events []LossEvent) Summary {
	s := Summary{
		Duration:    tr.Duration(),
		PacketsSent: tr.PacketsSent(),
		Events:      events,
	}
	var t0s stats.Running
	for _, e := range events {
		s.LossIndications++
		if !e.Timeout {
			s.TD++
			continue
		}
		bucket := e.NumTimeouts - 1
		if bucket > 5 {
			bucket = 5
		}
		if bucket < 0 {
			bucket = 0
		}
		s.TimeoutHist[bucket]++
		if e.FirstTimeoutDur > 0 {
			t0s.Add(e.FirstTimeoutDur)
		}
	}
	if s.PacketsSent > 0 {
		s.P = float64(s.LossIndications) / float64(s.PacketsSent)
	}
	s.MeanRTT = meanKarnRTT(tr)
	if t0s.N() > 0 {
		s.MeanT0 = t0s.Mean()
	}
	return s
}

// RoundCorrelation computes the coefficient of correlation between the
// duration of round samples and the number of packets in flight during
// each sample — the Section IV statistic used to test the independence of
// RTT and window size (near 0 on wide-area paths, near 1 on the modem
// path of Fig. 11).
func RoundCorrelation(tr trace.Trace) float64 {
	var rtts, flights []float64
	for _, r := range tr.Kind(trace.KindRoundSample) {
		rtts = append(rtts, r.Val)
		flights = append(flights, float64(r.Seq))
	}
	return stats.Correlation(rtts, flights)
}
