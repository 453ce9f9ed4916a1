package multiflow

import (
	"testing"

	"pftk/internal/sim"
)

// TestSharedBottleneckSteadyStateAllocs pins the packet path for the
// shared-bottleneck engine: with 10 flows warm, a simulated second
// averages under one allocation, the 0 allocs/op BenchmarkMultiFlow10
// records. The boxed path cost tens of allocations per packet-event
// before the typed pkt.Packet slots.
func TestSharedBottleneckSteadyStateAllocs(t *testing.T) {
	const n = 10
	cfg := Config{
		Flows: SymmetricFlows(n, FlowSpec{RTT: 0.08, Wm: 64, MinRTO: 0.5}),
		Bottleneck: Bottleneck{
			Rate:     20 * n,
			QueueCap: 5 * n,
			OneWay:   0.04,
		},
		Duration: 1,
		Seed:     7,
	}
	var eng sim.Engine
	m := New(&eng, cfg)
	m.Start()
	deadline := 30.0
	eng.RunUntil(deadline)

	allocs := testing.AllocsPerRun(20, func() {
		deadline++
		eng.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Errorf("shared-bottleneck path allocates %.1f times per simulated second for %d flows, want 0", allocs, n)
	}
}
