package reno

import (
	"fmt"

	"pftk/internal/netem"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

// ConnConfig bundles everything needed to run one bulk-transfer
// connection.
type ConnConfig struct {
	Sender   SenderConfig
	Receiver ReceiverConfig
	Path     netem.PathConfig
}

// Connection wires a saturated Reno sender to a receiver across an
// emulated path on a shared simulation engine.
type Connection struct {
	Eng      *sim.Engine
	Path     *netem.Path
	Sender   *Sender
	Receiver *Receiver

	endPending int // engine events pending when the run stopped, before the sender's Stop
}

// NewConnection constructs the sender, receiver and both link directions
// on eng.
func NewConnection(eng *sim.Engine, cfg ConnConfig) *Connection {
	path := netem.NewPath(eng, cfg.Path)
	snd := NewSender(eng, path.Forward, cfg.Sender)
	rcv := NewReceiver(eng, path.Reverse, snd.OnAck, cfg.Receiver)
	snd.toRecv = rcv.OnPacket
	return &Connection{Eng: eng, Path: path, Sender: snd, Receiver: rcv}
}

// Result summarizes one finished run.
type Result struct {
	// Duration is the wall-clock (simulated) length of the run in
	// seconds.
	Duration float64
	// Trace is the sender-side event trace.
	Trace trace.Trace
	// Stats are the sender's ground-truth counters.
	Stats SenderStats
	// Delivered is the count of distinct in-order packets at the
	// receiver.
	Delivered uint64
}

// SendRate returns packets transmitted (originals + retransmissions) per
// second — the paper's B.
func (r Result) SendRate() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Stats.TotalSent()) / r.Duration
}

// Throughput returns distinct packets delivered per second — the paper's
// T.
func (r Result) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Delivered) / r.Duration
}

// LossIndicationRate returns loss indications divided by packets sent —
// the paper's p estimate ("dividing the total number of loss indications
// by the total number of packets sent").
func (r Result) LossIndicationRate() float64 {
	sent := r.Stats.TotalSent()
	if sent == 0 {
		return 0
	}
	return float64(r.Stats.LossIndications()) / float64(sent)
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("Result(%.0fs: sent=%d retx=%d td=%d to=%d rate=%.2f pkts/s)",
		r.Duration, r.Stats.TotalSent(), r.Stats.Retransmits,
		r.Stats.TDEvents, r.Stats.TimeoutEvents, r.SendRate())
}

// Run starts the sender and advances the simulation for the given number
// of seconds, then freezes the connection and returns the results.
func (c *Connection) Run(duration float64) Result {
	start := c.Eng.Now()
	c.Sender.SetTraceStop(start + duration)
	c.Sender.Start()
	c.Eng.RunUntil(start + duration)
	c.endPending = c.Eng.Pending()
	c.Sender.Stop()
	return Result{
		Duration:  duration,
		Trace:     c.Sender.Trace(),
		Stats:     c.Sender.Stats(),
		Delivered: c.Receiver.Delivered(),
	}
}

// RunConnection is the one-call convenience used by the experiment
// harness: build a fresh engine and connection, run it for duration
// seconds.
func RunConnection(cfg ConnConfig, duration float64) Result {
	var eng sim.Engine
	conn := NewConnection(&eng, cfg)
	return conn.Run(duration)
}

// RunUntilComplete starts the sender and advances the simulation until a
// finite transfer (SenderConfig.TotalPackets > 0) completes or the
// deadline passes, returning the result and the completion time (the
// deadline if it never completed). No event after the deadline fires: an
// unfinished run leaves the clock at the deadline, so Result.Duration and
// the completion time never exceed it. The deadline is a bound, not a
// planned horizon, so trace growth is not sized from it.
func (c *Connection) RunUntilComplete(deadline float64) (Result, float64) {
	c.Sender.Start()
	done := deadline
	for c.Eng.StepUntil(deadline) {
		if c.Sender.Complete() {
			done = c.Eng.Now()
			break
		}
	}
	if !c.Sender.Complete() {
		c.Eng.RunUntil(deadline) // fires nothing: only advances the clock
	}
	c.endPending = c.Eng.Pending()
	c.Sender.Stop()
	return Result{
		Duration:  c.Eng.Now(),
		Trace:     c.Sender.Trace(),
		Stats:     c.Sender.Stats(),
		Delivered: c.Receiver.Delivered(),
	}, done
}

// TransferTime simulates a finite transfer of n packets over the given
// configuration and returns the completion time in seconds (deadline on
// non-completion).
func TransferTime(cfg ConnConfig, n uint64, deadline float64) float64 {
	cfg.Sender.TotalPackets = n
	var eng sim.Engine
	conn := NewConnection(&eng, cfg)
	_, done := conn.RunUntilComplete(deadline)
	return done
}
