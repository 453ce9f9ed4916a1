package multiflow

import (
	"runtime"
	"testing"
	"time"

	"pftk/internal/sim"
	"pftk/internal/trace"
)

// TestMidRunTraceComplete: a trace read mid-run, with records still in
// the engine's spool, holds every send the sender has counted.
func TestMidRunTraceComplete(t *testing.T) {
	var eng sim.Engine
	m := New(&eng, symmetricConfig(20, 60))
	m.Start()
	for _, at := range []float64{0.5, 13.37, 30} {
		eng.RunUntil(at)
		for i, f := range m.flows {
			var sends int
			for _, r := range f.conn.Sender.Trace() {
				if r.Kind == trace.KindSend || r.Kind == trace.KindRetransmit {
					sends++
				}
			}
			if want := f.conn.Sender.Stats().TotalSent(); sends != want {
				t.Fatalf("t=%v flow %d: trace holds %d sends, sender counted %d", at, i, sends, want)
			}
		}
	}
}

// waitGoroutines polls until at most base goroutines run, failing after
// a generous bound.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineLeavesNoGoroutine: the trace spool's consumer exits after a
// run, finished or dropped mid-run without Finish.
func TestEngineLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := symmetricConfig(50, 30)

	Run(cfg)
	waitGoroutines(t, base)

	var eng sim.Engine
	m := New(&eng, cfg)
	m.Start()
	eng.RunUntil(cfg.Duration / 2)
	waitGoroutines(t, base)
}
