package netem

import (
	"fmt"
	"math"

	"pftk/internal/pkt"
	"pftk/internal/sim"
)

// DelayProcess produces the propagation delay for each packet. The
// unidirectional one-way delays of the paper's Internet paths are modeled
// as a base plus jitter.
type DelayProcess interface {
	// Delay returns the one-way propagation delay in seconds for a
	// packet entering the wire at simulation time now.
	Delay(now float64) float64
}

// ConstantDelay is a fixed one-way delay.
type ConstantDelay float64

// Delay implements DelayProcess.
func (d ConstantDelay) Delay(float64) float64 { return float64(d) }

// UniformJitterDelay is Base plus a uniform jitter in [0, Jitter).
type UniformJitterDelay struct {
	Base, Jitter float64
	RNG          *sim.RNG
}

// Delay implements DelayProcess.
func (d *UniformJitterDelay) Delay(float64) float64 {
	if d.Jitter <= 0 {
		return d.Base
	}
	return d.Base + d.RNG.Uniform(0, d.Jitter)
}

// ShiftedExpDelay is Base plus an exponential tail with the given mean —
// a common fit for wide-area queueing delay outside the bottleneck.
type ShiftedExpDelay struct {
	Base, TailMean float64
	RNG            *sim.RNG
}

// Delay implements DelayProcess.
func (d *ShiftedExpDelay) Delay(float64) float64 {
	if d.TailMean <= 0 {
		return d.Base
	}
	return d.Base + d.RNG.Exp(d.TailMean)
}

// LinkStats counts what happened on a link.
type LinkStats struct {
	Offered      int // packets presented to the link
	Delivered    int // packets handed to the receiver
	RandomDrops  int // dropped by the LossModel
	QueueDrops   int // dropped by drop-tail overflow
	Duplicated   int // extra copies injected by a duplication window
	MaxQueue     int // high-water mark of the queue, in packets
	BusySeconds  float64
	lastBusyFrom float64
}

// LossRate returns total drops divided by offered packets.
func (s LinkStats) LossRate() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.RandomDrops+s.QueueDrops) / float64(s.Offered)
}

// FlowStats counts what happened on a link to one flow's packets, keyed
// by the Flow field of the packets it carried. Collected only when
// EnablePerFlowStats has sized the per-flow table; the multi-flow
// engine uses it for per-flow conservation checks and loss attribution.
type FlowStats struct {
	Offered     int // packets this flow presented to the link
	Delivered   int // packets handed to the receiver
	RandomDrops int // dropped by the LossModel (or RED decision)
	QueueDrops  int // dropped by drop-tail overflow
}

// LossRate returns the flow's drops divided by its offered packets.
func (s FlowStats) LossRate() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.RandomDrops+s.QueueDrops) / float64(s.Offered)
}

// String implements fmt.Stringer.
func (s LinkStats) String() string {
	return fmt.Sprintf("offered=%d delivered=%d randomDrops=%d queueDrops=%d maxQ=%d",
		s.Offered, s.Delivered, s.RandomDrops, s.QueueDrops, s.MaxQueue)
}

// LinkConfig describes one direction of a path.
type LinkConfig struct {
	// Rate is the transmission rate in packets per second; 0 or negative
	// means infinitely fast (no serialization or queueing).
	Rate float64
	// QueueCap is the drop-tail queue capacity in packets (excluding the
	// packet in service). Ignored when Rate is infinite. Zero means no
	// buffering: a packet arriving while the link is busy is dropped.
	QueueCap int
	// Delay is the propagation delay process; nil means zero delay.
	Delay DelayProcess
	// Loss drops packets before they enter the queue; nil means no loss.
	Loss LossModel
	// Metrics holds optional observability handles; the zero value
	// disables collection (see LinkMetrics).
	Metrics LinkMetrics
}

// Link is one unidirectional emulated link: loss model, then a finite-rate
// server with a drop-tail queue, then propagation delay. Deliveries are
// made through the callback passed to Send. Delivery order is FIFO: jitter
// never reorders packets (a later packet is delivered no earlier than its
// predecessor), matching the in-order paths of the paper's model.
type Link struct {
	eng     *sim.Engine
	cfg     LinkConfig
	busy    bool
	queue   ring
	stats   LinkStats
	lastOut float64   // latest scheduled delivery time, for FIFO clamping
	lane    *sim.Lane // the engine's lane for a ConstantDelay; nil for any other delay
	own     *sim.Lane // the link's private lane, made on first in-order use

	// In-service packet and the pre-built completion callback, so serving
	// a packet schedules a stored func instead of allocating a closure
	// per transmission.
	txPayload pkt.Packet
	txDeliver func(pkt.Packet)
	txDone    func()

	// Per-flow counters, indexed by the packets' Flow field; nil (the
	// default) disables collection and costs one nil check per packet.
	perFlow []FlowStats

	// Fault-injection state, mutable at runtime (see the Set* methods).
	dupP    float64  // per-packet duplication probability; 0 disables
	dupRNG  *sim.RNG // stream for duplication decisions
	reorder bool     // when set, the FIFO delivery clamp is suspended
}

type queued struct {
	payload pkt.Packet
	deliver func(pkt.Packet)
}

// ring is a growable circular buffer of queued packets. Pre-sized to the
// link's QueueCap, it recycles its slots so the steady-state FIFO path
// never allocates; growth (capacity raised at runtime) is amortized
// doubling.
type ring struct {
	buf  []queued
	head int // index of the oldest element
	n    int // number of queued elements
}

// push appends one packet at the tail.
func (r *ring) push(q queued) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

// pop removes and returns the oldest packet, clearing the vacated slot so
// the ring never pins delivered payloads.
func (r *ring) pop() queued {
	q := r.buf[r.head]
	r.buf[r.head] = queued{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

// grow doubles the ring's capacity, linearizing the live elements.
func (r *ring) grow() {
	newCap := 2 * len(r.buf)
	if newCap < 4 {
		newCap = 4
	}
	buf := make([]queued, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

// presize allocates capacity for n packets up front (bounded, so an
// absurd QueueCap cannot balloon memory before any packet queues).
func (r *ring) presize(n int) {
	const maxPresize = 4096
	if n > maxPresize {
		n = maxPresize
	}
	if n > 0 {
		r.buf = make([]queued, n)
	}
}

// NewLink creates a link driven by eng.
func NewLink(eng *sim.Engine, cfg LinkConfig) *Link {
	if eng == nil {
		panic("netem: nil engine")
	}
	l := &Link{eng: eng, cfg: cfg, lane: constantLane(eng, cfg.Delay)}
	l.queue.presize(cfg.QueueCap)
	l.txDone = l.onTxDone
	return l
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// EnablePerFlowStats sizes the per-flow counter table for flow IDs
// 0..n-1 and starts collecting. Packets whose Flow falls outside the
// table (or all packets, before this call) are counted only in the
// aggregate LinkStats.
func (l *Link) EnablePerFlowStats(n int) {
	if n > 0 {
		l.perFlow = make([]FlowStats, n)
	}
}

// FlowStats returns a snapshot of flow i's counters; the zero value when
// per-flow collection is disabled or i is out of range.
func (l *Link) FlowStats(i int) FlowStats {
	if i < 0 || i >= len(l.perFlow) {
		return FlowStats{}
	}
	return l.perFlow[i]
}

// flowEntry returns the mutable per-flow counter slot for p, or nil when
// collection is off or the flow ID is out of range.
//
//pftk:hotpath
func (l *Link) flowEntry(p pkt.Packet) *FlowStats {
	if int(p.Flow) >= len(l.perFlow) || p.Flow < 0 {
		return nil
	}
	return &l.perFlow[p.Flow]
}

// QueueLen returns the number of packets waiting (not in service).
func (l *Link) QueueLen() int { return l.queue.n }

// Send offers one packet to the link. deliver is invoked with payload at
// the receiver once the packet survives loss, queueing and propagation;
// dropped packets simply never arrive, exactly like the real network.
// During a duplication window an extra copy of the packet may be admitted
// behind the original, riding the same queue.
//
// Send allocates nothing: queueing recycles ring slots, transmission and
// propagation schedule stored callbacks (no per-packet closures), and the
// event arena underneath is pooled — pinned by TestLinkSendZeroAlloc.
//
//pftk:hotpath
func (l *Link) Send(payload pkt.Packet, deliver func(pkt.Packet)) {
	if deliver == nil {
		panic("netem: nil deliver callback")
	}
	l.stats.Offered++
	l.cfg.Metrics.Offered.Inc()
	fs := l.flowEntry(payload)
	if fs != nil {
		fs.Offered++
	}
	now := l.eng.Now()
	if l.cfg.Loss != nil && l.cfg.Loss.Drop(now) {
		l.stats.RandomDrops++
		if fs != nil {
			fs.RandomDrops++
		}
		l.cfg.Metrics.LossDrops.Inc()
		if f := l.eng.FlightRecorder(); f != nil {
			f.Note(sim.FlightDrop, now, now, 0, "loss")
		}
		return
	}
	l.admit(payload, deliver)
	if l.dupP > 0 && l.dupRNG != nil && l.dupRNG.Bool(l.dupP) {
		l.stats.Duplicated++
		l.admit(payload, deliver)
	}
}

// admit routes one surviving packet into the rate server (or straight to
// propagation on an infinitely fast link).
//
//pftk:hotpath
func (l *Link) admit(payload pkt.Packet, deliver func(pkt.Packet)) {
	if l.busy {
		if l.queue.n >= l.cfg.QueueCap {
			l.stats.QueueDrops++
			if fs := l.flowEntry(payload); fs != nil {
				fs.QueueDrops++
			}
			l.cfg.Metrics.FIFODrops.Inc()
			if f := l.eng.FlightRecorder(); f != nil {
				f.Note(sim.FlightDrop, l.eng.Now(), l.eng.Now(), 0, "fifo")
			}
			return
		}
		l.queue.push(queued{payload, deliver})
		if l.queue.n > l.stats.MaxQueue {
			l.stats.MaxQueue = l.queue.n
		}
		l.cfg.Metrics.Queue.Set(float64(l.queue.n))
		return
	}
	if l.cfg.Rate <= 0 {
		l.propagate(payload, deliver)
		return
	}
	l.serve(payload, deliver)
}

// serve puts a packet into transmission. If the link rate was switched to
// infinite while packets were queued, the backlog drains immediately.
//
//pftk:hotpath
func (l *Link) serve(payload pkt.Packet, deliver func(pkt.Packet)) {
	if l.cfg.Rate <= 0 {
		l.busy = false
		l.propagate(payload, deliver)
		for l.queue.n > 0 {
			next := l.queue.pop()
			l.propagate(next.payload, next.deliver)
		}
		l.cfg.Metrics.Queue.Set(0)
		return
	}
	l.busy = true
	l.stats.lastBusyFrom = l.eng.Now()
	l.txPayload, l.txDeliver = payload, deliver
	l.eng.After(1/l.cfg.Rate, l.txDone)
}

// onTxDone completes the in-service packet's transmission: hand it to
// propagation and pull the next packet, if any, into service. Stored as
// l.txDone at construction so serve never allocates a closure.
//
//pftk:hotpath
func (l *Link) onTxDone() {
	l.stats.BusySeconds += l.eng.Now() - l.stats.lastBusyFrom
	payload, deliver := l.txPayload, l.txDeliver
	l.txPayload, l.txDeliver = pkt.Packet{}, nil
	l.propagate(payload, deliver)
	if l.queue.n > 0 {
		next := l.queue.pop()
		l.cfg.Metrics.Queue.Set(float64(l.queue.n))
		l.serve(next.payload, next.deliver)
	} else {
		l.busy = false
	}
}

// propagate schedules final delivery after the propagation delay,
// clamping so deliveries stay in FIFO order under jitter. During a
// reordering window the clamp is suspended: a short-delay packet may
// overtake its predecessors, which is exactly the pathology the fault
// injects.
//
// A constant delay that the clamp left alone rides the engine's lane for
// that delay, which fires it at the same time and in the same order as a
// heap event would. Any other in-order delivery (a jittered delay, or a
// time clamped right after the delay stepped down) rides the link's
// private lane: outside a reordering window the clamp keeps the link's
// delivery times non-decreasing. Only deliveries made during a
// reordering window take the heap.
//
//pftk:hotpath
func (l *Link) propagate(payload pkt.Packet, deliver func(pkt.Packet)) {
	d := 0.0
	if l.cfg.Delay != nil {
		d = l.cfg.Delay.Delay(l.eng.Now())
	}
	at := l.eng.Now() + clampDelay(d)
	clamped := false
	if !l.reorder && at < l.lastOut {
		at = l.lastOut
		clamped = true
	}
	if at > l.lastOut {
		l.lastOut = at
	}
	l.stats.Delivered++
	if fs := l.flowEntry(payload); fs != nil {
		fs.Delivered++
	}
	l.cfg.Metrics.Delivered.Inc()
	switch {
	case l.lane != nil && !clamped:
		l.lane.SchedulePacket(deliver, payload)
	case !l.reorder:
		if l.own == nil {
			l.own = l.eng.NewLane()
		}
		l.own.SchedulePacketAt(at, deliver, payload)
	default:
		l.eng.SchedulePacket(at, deliver, payload)
	}
}

// clampDelay treats a negative or NaN delay as zero.
func clampDelay(d float64) float64 {
	if d < 0 || math.IsNaN(d) {
		return 0
	}
	return d
}

// constantLane returns eng's lane for a ConstantDelay process, or nil for
// any other process.
func constantLane(eng *sim.Engine, dp DelayProcess) *sim.Lane {
	cd, ok := dp.(ConstantDelay)
	if !ok {
		return nil
	}
	return eng.Lane(clampDelay(float64(cd)))
}

// SetLoss replaces the link's loss model; nil disables loss. Effective
// for the next offered packet.
func (l *Link) SetLoss(m LossModel) { l.cfg.Loss = m }

// Loss returns the link's current loss model (nil when lossless).
func (l *Link) Loss() LossModel { return l.cfg.Loss }

// SetDelay replaces the link's propagation-delay process; nil means zero
// delay. In-flight packets keep the delay they were assigned.
func (l *Link) SetDelay(d DelayProcess) {
	l.cfg.Delay = d
	l.lane = constantLane(l.eng, d)
}

// Delay returns the link's current delay process.
func (l *Link) Delay() DelayProcess { return l.cfg.Delay }

// SetRate changes the transmission rate in packets per second; 0 or
// negative means infinitely fast. A packet already in transmission keeps
// its old serialization time; queued packets are served at the new rate
// (and drain immediately when the link becomes infinitely fast).
func (l *Link) SetRate(rate float64) { l.cfg.Rate = rate }

// SetQueueCap changes the drop-tail capacity. Already-queued packets are
// never evicted; a shrunken capacity only affects new arrivals.
func (l *Link) SetQueueCap(capacity int) { l.cfg.QueueCap = capacity }

// SetDuplicate opens (p > 0) or closes (p <= 0) a duplication window:
// each surviving packet is duplicated with probability p, drawing
// decisions from rng.
func (l *Link) SetDuplicate(p float64, rng *sim.RNG) {
	l.dupP = p
	l.dupRNG = rng
}

// SetReorder suspends (on) or restores (off) the FIFO delivery clamp.
// With the clamp suspended, delay jitter translates into out-of-order
// arrivals — the duplicate-ACK generator of real networks.
func (l *Link) SetReorder(on bool) { l.reorder = on }

// PathConfig describes a bidirectional sender-receiver path.
type PathConfig struct {
	// Forward carries data packets, Reverse carries ACKs.
	Forward, Reverse LinkConfig
}

// Path couples a forward (data) and reverse (ACK) link.
type Path struct {
	// Forward and Reverse are the two directions.
	Forward, Reverse *Link
}

// NewPath builds both directions of a path on the same engine.
func NewPath(eng *sim.Engine, cfg PathConfig) *Path {
	return &Path{
		Forward: NewLink(eng, cfg.Forward),
		Reverse: NewLink(eng, cfg.Reverse),
	}
}

// PathController is the runtime-mutation surface of an emulated path: the
// handle a scenario engine drives to change path conditions and inject
// faults mid-simulation. All methods follow the convention of the paper's
// unidirectional bulk transfers: loss, bottleneck, duplication and
// reordering act on the forward (data) direction, while delay is settable
// per direction so an RTT change splits across both. Implementations are
// driven from the single simulation goroutine and need no locking.
type PathController interface {
	// SetLoss replaces the data-direction loss model (nil = lossless).
	SetLoss(m LossModel)
	// Loss returns the data-direction loss model currently installed.
	Loss() LossModel
	// SetOneWayDelay replaces the delay processes of the forward and
	// reverse directions (nil leaves a direction unchanged).
	SetOneWayDelay(fwd, rev DelayProcess)
	// SetBottleneck reconfigures the data direction's transmission rate
	// (packets/s; <= 0 means infinitely fast) and drop-tail capacity.
	SetBottleneck(rate float64, queueCap int)
	// SetDuplicate opens (p > 0) or closes a data-direction duplication
	// window.
	SetDuplicate(p float64, rng *sim.RNG)
	// SetReorder suspends (on) or restores the data direction's FIFO
	// delivery ordering.
	SetReorder(on bool)
	// DataStats snapshots the data-direction link counters, the basis
	// for per-phase packet/drop attribution.
	DataStats() LinkStats
}

var _ PathController = (*Path)(nil)

// SetLoss implements PathController on the forward link.
func (p *Path) SetLoss(m LossModel) { p.Forward.SetLoss(m) }

// Loss implements PathController.
func (p *Path) Loss() LossModel { return p.Forward.Loss() }

// SetOneWayDelay implements PathController; a nil process leaves that
// direction's delay unchanged.
func (p *Path) SetOneWayDelay(fwd, rev DelayProcess) {
	if fwd != nil {
		p.Forward.SetDelay(fwd)
	}
	if rev != nil {
		p.Reverse.SetDelay(rev)
	}
}

// SetBottleneck implements PathController on the forward link.
func (p *Path) SetBottleneck(rate float64, queueCap int) {
	p.Forward.SetRate(rate)
	p.Forward.SetQueueCap(queueCap)
}

// SetDuplicate implements PathController on the forward link.
func (p *Path) SetDuplicate(prob float64, rng *sim.RNG) { p.Forward.SetDuplicate(prob, rng) }

// SetReorder implements PathController on the forward link.
func (p *Path) SetReorder(on bool) { p.Forward.SetReorder(on) }

// DataStats implements PathController.
func (p *Path) DataStats() LinkStats { return p.Forward.Stats() }

// SymmetricPath returns a PathConfig with the given one-way delay process
// constructors, loss on the forward direction only (the common case for
// the paper's unidirectional bulk transfers) and infinitely fast links.
func SymmetricPath(oneWay float64, loss LossModel) PathConfig {
	return PathConfig{
		Forward: LinkConfig{Delay: ConstantDelay(oneWay), Loss: loss},
		Reverse: LinkConfig{Delay: ConstantDelay(oneWay)},
	}
}

// ModemPath reproduces the Fig. 11 pathology: a slow bottleneck (rate in
// packets/s) with a deep buffer dedicated to the connection (queueCap
// packets) and a small propagation delay. With a saturated sender, the
// queueing delay — and hence the measured RTT — grows with the window,
// producing the RTT/window correlation near 1 reported in Section IV.
func ModemPath(rate float64, queueCap int, oneWay float64) PathConfig {
	return PathConfig{
		Forward: LinkConfig{Rate: rate, QueueCap: queueCap, Delay: ConstantDelay(oneWay)},
		Reverse: LinkConfig{Delay: ConstantDelay(oneWay)},
	}
}
