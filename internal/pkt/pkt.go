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
//
// Packet has four fields in 24 bytes. Go passes and keeps a struct of at
// most four fields and 32 bytes in registers; a larger one is spilled to
// the stack at every call and reloaded with block moves, which cost more
// than the packet path's own work (TestPacketFitsInRegisters). A protocol
// whose message carries more than fits keeps the rest on its own side and
// names it by Seq: a TFRC feedback packet carries the index of the
// receiver report it delivers, and the report stays in the tfrc.Flow.
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
	// Feedback is a TFRC receiver report: Seq is the report's index in
	// the flow's report table and Sent the echoed send timestamp.
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
// type sized for registers and the event arena: copying it is three word
// moves and a recycled slot retains no heap references. Fields are
// interpreted per Kind.
type Packet struct {
	// Seq is the data sequence number (Data, RateData), the cumulative
	// acknowledgment number (Ack) or the report index (Feedback).
	Seq uint64
	// Sent is the send timestamp (RateData) or the echoed send
	// timestamp for RTT measurement (Feedback).
	Sent float64
	// Flow identifies the sending flow when several share a link; the
	// per-flow link counters and multi-flow traces key on it. Single
	// flow runs leave it 0.
	Flow int32
	// Kind discriminates the payload; the zero value is Data.
	Kind Kind
}
