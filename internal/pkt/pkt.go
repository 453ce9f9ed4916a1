// Package pkt defines the typed packet union carried through the
// simulator's event arena and the emulated links. It is the leaf of the
// packet path: sim schedules Packet-carrying events, netem queues and
// delivers Packets, and the protocol layers (reno, tfrc) interpret them
// by Kind.
//
// Packet replaces the `any` payloads the sim/netem boundary used to box:
// a single pointer-free value type covers every protocol's wire format,
// so the hot path — Link.Send through Engine.SchedulePacket to the
// delivery callback — moves packets by value with zero allocations. The
// cost is one discriminator check at each protocol boundary (a receiver
// ignores Kinds it does not own), exactly like demultiplexing on a real
// shared link.
package pkt

// Kind discriminates the protocol payload a Packet carries. The zero
// value is Data so that a bare Packet{Seq: n} literal — the dominant
// case, a TCP data segment — needs no explicit Kind.
type Kind uint8

const (
	// Data is a TCP data segment, numbered in packets from 1 (Seq).
	Data Kind = iota
	// Ack is a cumulative TCP acknowledgment: every packet with
	// sequence < Seq has been received.
	Ack
	// RateData is a paced TFRC datagram (Seq, Sent).
	RateData
	// Feedback is a TFRC receiver report (P, Rate, Sent as the echoed
	// send timestamp).
	Feedback
)

// String returns the wire-format name of the kind.
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case RateData:
		return "ratedata"
	case Feedback:
		return "feedback"
	default:
		return "unknown"
	}
}

// Packet is one datagram on an emulated link. It is a pointer-free value
// type sized for the event arena: copying it is a handful of word moves
// and a recycled slot retains no heap references. Fields beyond Seq are
// interpreted per Kind; unused fields stay zero.
type Packet struct {
	// Seq is the data sequence number (Data, RateData) or the
	// cumulative acknowledgment number (Ack).
	Seq uint64
	// Sent is the send timestamp (RateData) or the echoed send
	// timestamp for RTT measurement (Feedback).
	Sent float64
	// Rate is the receive rate reported by TFRC feedback (pkts/s).
	Rate float64
	// P is the loss-event rate reported by TFRC feedback.
	P float64
	// Flow identifies the sending flow when several share a link; the
	// per-flow link counters and multi-flow traces key on it. Single
	// flow runs leave it 0.
	Flow int32
	// Kind discriminates the payload; the zero value is Data.
	Kind Kind
	// Retx marks TCP retransmissions (diagnostic only; receivers do
	// not see this bit on a real wire and never read it).
	Retx bool
}
