package reno

import (
	"testing"

	"pftk/internal/netem"
	"pftk/internal/obs"
	"pftk/internal/sim"
)

// TestRecordMetricsCrossChecks checks the recorded metrics against the
// records they are not read from: the trace's RTT samples against the
// sender's sample count, the forward link's offered packets against the
// sender's transmissions, and the sender's live timer-cancel count
// against the engine's cancels, of which it is a part.
func TestRecordMetricsCrossChecks(t *testing.T) {
	reg := obs.New()
	cfg := ConnConfig{
		Sender: SenderConfig{RWnd: 16, MinRTO: 1.0, Metrics: NewMetrics(reg)},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(0.05, sim.NewRNG(11))),
	}
	var eng sim.Engine
	conn := NewConnection(&eng, cfg)
	st := conn.Run(400).Stats
	conn.RecordMetrics(reg)
	snap := reg.Snapshot()

	if st.TDEvents == 0 || st.TimeoutEvents == 0 {
		t.Fatalf("run must exercise both loss-indication kinds: %+v", st)
	}
	if rh := snap.Histograms["reno.rtt"]; rh.Count != uint64(st.RTTSamples) {
		t.Errorf("rtt histogram count = %d, samples = %d", rh.Count, st.RTTSamples)
	}
	if got := snap.Counter("netem.fwd.offered"); got != uint64(st.TotalSent()) {
		t.Errorf("forward offered = %d, total sent = %d", got, st.TotalSent())
	}
	cancels := snap.Counter("reno.timer.cancels")
	if cancels == 0 || cancels > snap.Counter("sim.cancels") {
		t.Errorf("sender timer cancels = %d, engine cancels = %d: want 0 < sender <= engine",
			cancels, snap.Counter("sim.cancels"))
	}
	if snap.Histograms["reno.cwnd"].Count == 0 {
		t.Error("cwnd never sampled")
	}
}

// TestDisabledSenderMetricsIdenticalRun confirms the disabled-metrics
// sender produces the identical trace (observability must never perturb
// the simulation).
func TestDisabledSenderMetricsIdenticalRun(t *testing.T) {
	run := func(reg *obs.Registry) Result {
		cfg := ConnConfig{
			Sender: SenderConfig{RWnd: 16, MinRTO: 1.0, Metrics: NewMetrics(reg)},
			Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(0.05, sim.NewRNG(11))),
		}
		var eng sim.Engine
		return NewConnection(&eng, cfg).Run(200)
	}
	on := run(obs.New())
	off := run(nil)
	if on.Stats != off.Stats {
		t.Errorf("metrics changed the run:\n on=%+v\noff=%+v", on.Stats, off.Stats)
	}
	if len(on.Trace) != len(off.Trace) {
		t.Errorf("trace length differs: %d vs %d", len(on.Trace), len(off.Trace))
	}
}
