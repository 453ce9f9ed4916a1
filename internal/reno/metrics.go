package reno

import (
	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/trace"
)

// Metrics carries the sender's live observability handles: the two
// quantities no other record of the run holds. The zero value (all-nil
// handles) disables collection; the hot path then pays one nil check
// per update and allocates nothing.
//
// Every other run metric has a struct or trace counterpart, so it is
// derived from that record after the run (Connection.RecordMetrics),
// never counted twice.
type Metrics struct {
	// Cwnd samples the congestion window (packets) after every change.
	Cwnd *obs.Histogram
	// TimerCancels counts pending RTO timers cancelled before firing
	// (restarts on new ACKs plus the final Stop).
	TimerCancels *obs.Counter
}

// Standard bucket bounds for the sender histograms: cwnd in powers of
// two up to the largest advertised windows of Table I, backoff by exact
// exponent (overflow = "T5 or more"), RTT log-spaced from LAN to
// satellite scale.
var (
	cwndBounds    = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}
	backoffBounds = []float64{0, 1, 2, 3, 4, 5}
	rttBounds     = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10}
)

// NewMetrics registers the live sender metrics on r ("reno.cwnd",
// "reno.timer.cancels"), returning the handle bundle. A nil registry
// yields the all-nil (disabled) bundle.
func NewMetrics(r *obs.Registry) Metrics {
	return Metrics{
		Cwnd:         r.Histogram("reno.cwnd", cwndBounds),
		TimerCancels: r.Counter("reno.timer.cancels"),
	}
}

// RecordMetrics writes a finished run's metrics to reg; call it once,
// after Run or RunUntilComplete. Each value is read from the record that
// already holds it: the engine's counters, each link's LinkStats,
// SenderStats (the backoff histogram from TimeoutsByBackoff, whose last
// slot also holds any deeper exponent) and the trace's RoundSample
// records. A depth gauge reads the depth when the run stopped, with the
// peak as its high-water mark. A nil registry records nothing.
func (c *Connection) RecordMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("sim.events").Add(c.Eng.Fired())
	reg.Counter("sim.cancels").Add(c.Eng.Cancels())
	setGauge(reg.Gauge("sim.queue.depth"), c.endPending, c.Eng.PeakPending())

	recordLink(reg, "netem.fwd", c.Path.Forward)
	recordLink(reg, "netem.rev", c.Path.Reverse)

	st := c.Sender.Stats()
	reg.Counter("reno.acks").Add(uint64(st.AcksReceived))
	reg.Counter("reno.indications.td").Add(uint64(st.TDEvents))
	reg.Counter("reno.timeouts.fired").Add(uint64(st.TimeoutEvents))
	// Depth-0 fires open a new timeout sequence: the unit Table II
	// counts as one loss indication.
	reg.Counter("reno.timeouts.sequences").Add(uint64(st.TimeoutsByBackoff[0]))
	backoff := reg.Histogram("reno.timeouts.backoff", backoffBounds)
	for exp, n := range st.TimeoutsByBackoff {
		for ; n > 0; n-- {
			backoff.Observe(float64(exp))
		}
	}
	rtt := reg.Histogram("reno.rtt", rttBounds)
	for _, r := range c.Sender.Trace() {
		if r.Kind == trace.KindRoundSample {
			rtt.Observe(r.Val)
		}
	}
}

// recordLink writes one link direction's counters under prefix. A
// connection's links are drop-tail, so the RED drop counter is
// registered at zero: every export carries the same metric names.
func recordLink(reg *obs.Registry, prefix string, l *netem.Link) {
	st := l.Stats()
	reg.Counter(prefix + ".offered").Add(uint64(st.Offered))
	reg.Counter(prefix + ".delivered").Add(uint64(st.Delivered))
	reg.Counter(prefix + ".drops.loss").Add(uint64(st.RandomDrops))
	reg.Counter(prefix + ".drops.fifo").Add(uint64(st.QueueDrops))
	reg.Counter(prefix + ".drops.red")
	setGauge(reg.Gauge(prefix+".queue"), l.QueueLen(), st.MaxQueue)
}

// setGauge leaves g reading value with its high-water mark raised to
// peak.
func setGauge(g *obs.Gauge, value, peak int) {
	g.Set(float64(peak))
	g.Set(float64(value))
}
