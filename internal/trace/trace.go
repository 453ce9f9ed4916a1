// Package trace defines the sender-side packet event traces used
// throughout this repository — the stand-in for the tcpdump captures the
// paper collected at each sender — together with binary and JSON-lines
// codecs and filtering helpers.
//
// A trace is a time-ordered sequence of Records. Two classes of records
// coexist:
//
//   - wire-level records (Send, Retransmit, Ack) carry exactly the
//     information a tcpdump capture at the sender would: timestamps,
//     sequence numbers and cumulative ACKs. The analysis package infers
//     loss indications from these alone, mirroring the paper's
//     methodology.
//   - ground-truth records (TDIndication, TimeoutFired, CwndChange,
//     RoundSample) are emitted by the simulated TCP stack and used to
//     validate the inference in tests and to compute quantities, such as
//     the RTT-window correlation of Section IV, that need internal state.
//
// Sequence numbers count packets (segments), not bytes, matching the
// paper's packet-based model.
//
// The simulator captures through Buffer, a pre-grown record buffer. A
// run of many flows on one engine attaches its flows' buffers to a
// Spool, whose one consumer goroutine makes the appends off the engine
// goroutine, in producer order, with identical results; a single
// connection appends directly, since the runs that have many of those
// already keep every core busy with one connection each.
package trace

import (
	"fmt"
	"sort"
)

// Kind identifies the type of a trace record.
type Kind uint8

// Record kinds.
const (
	// KindInvalid is the zero Kind; it never appears in valid traces.
	KindInvalid Kind = iota
	// KindSend is an original transmission of packet Seq.
	KindSend
	// KindRetransmit is a retransmission of packet Seq. Val is 1 if the
	// retransmission was triggered by a timeout, 0 if by fast
	// retransmit.
	KindRetransmit
	// KindAck is the arrival of a cumulative acknowledgment. Ack is the
	// next packet expected by the receiver (all packets < Ack have been
	// received).
	KindAck
	// KindTDIndication is a ground-truth triple-duplicate (fast
	// retransmit) loss indication at the sender.
	KindTDIndication
	// KindTimeoutFired is a ground-truth retransmission-timeout loss
	// indication. Val holds the backoff exponent: 0 for the first
	// timeout of a sequence (duration T0), 1 for the doubled timeout,
	// and so on.
	KindTimeoutFired
	// KindCwndChange records a congestion-window update; Val is the new
	// window in packets.
	KindCwndChange
	// KindRoundSample records one "round" observation: Val is the round
	// duration (an RTT sample) and Seq holds the number of packets in
	// flight during that round. Used for the Section IV correlation
	// study.
	KindRoundSample
	kindMax // one past the last valid kind
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRetransmit:
		return "retx"
	case KindAck:
		return "ack"
	case KindTDIndication:
		return "td"
	case KindTimeoutFired:
		return "timeout"
	case KindCwndChange:
		return "cwnd"
	case KindRoundSample:
		return "round"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined record kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindMax }

// Record is one trace event.
type Record struct {
	// Time is seconds since the start of the connection.
	Time float64 `json:"t"`
	// Kind is the event type.
	Kind Kind `json:"k"`
	// Seq is the packet sequence number for Send/Retransmit records and
	// the flight size for RoundSample records.
	Seq uint64 `json:"seq,omitempty"`
	// Ack is the cumulative acknowledgment for Ack records.
	Ack uint64 `json:"ack,omitempty"`
	// Val carries kind-specific data; see the Kind constants.
	Val float64 `json:"v,omitempty"`
}

// String implements fmt.Stringer.
func (r Record) String() string {
	return fmt.Sprintf("%.6f %s seq=%d ack=%d val=%g", r.Time, r.Kind, r.Seq, r.Ack, r.Val)
}

// Trace is a time-ordered sequence of records.
type Trace []Record

// Duration returns the time span covered by the trace (last minus first
// timestamp), or 0 for traces with fewer than two records.
func (t Trace) Duration() float64 {
	if len(t) < 2 {
		return 0
	}
	return t[len(t)-1].Time - t[0].Time
}

// Sorted reports whether the records are in non-decreasing time order.
func (t Trace) Sorted() bool {
	return sort.SliceIsSorted(t, func(i, j int) bool { return t[i].Time < t[j].Time })
}

// Sort orders the records by time, stably, preserving the relative order
// of simultaneous records.
func (t Trace) Sort() {
	sort.SliceStable(t, func(i, j int) bool { return t[i].Time < t[j].Time })
}

// Filter returns the records for which keep returns true.
func (t Trace) Filter(keep func(Record) bool) Trace {
	var out Trace
	for _, r := range t {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// Kind returns the records of the given kind.
func (t Trace) Kind(k Kind) Trace {
	return t.Filter(func(r Record) bool { return r.Kind == k })
}

// Count returns the number of records of the given kind.
func (t Trace) Count(k Kind) int {
	n := 0
	for _, r := range t {
		if r.Kind == k {
			n++
		}
	}
	return n
}

// PacketsSent returns the total number of data transmissions in the trace
// (originals plus retransmissions) — the paper's N_t, since the send rate
// counts every packet "regardless of its eventual fate".
func (t Trace) PacketsSent() int {
	return t.Count(KindSend) + t.Count(KindRetransmit)
}

// Window returns the records with Time in [from, to).
func (t Trace) Window(from, to float64) Trace {
	return t.Filter(func(r Record) bool { return r.Time >= from && r.Time < to })
}

// Validate checks structural invariants: kinds are defined, timestamps are
// non-decreasing and non-negative.
func (t Trace) Validate() error {
	prev := 0.0
	for i, r := range t {
		if !r.Kind.Valid() {
			return fmt.Errorf("trace: record %d has invalid kind %d", i, r.Kind)
		}
		if r.Time < 0 {
			return fmt.Errorf("trace: record %d has negative time %g", i, r.Time)
		}
		if r.Time < prev {
			return fmt.Errorf("trace: record %d time %g before previous %g", i, r.Time, prev)
		}
		prev = r.Time
	}
	return nil
}
