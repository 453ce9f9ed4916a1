package multiflow

import (
	"math"
	"sync"
	"testing"

	"pftk/internal/sim"
)

// symmetricConfig is the canonical shared-bottleneck population used by
// the fairness tests: n identical Reno flows through one drop-tail
// link. The queue is kept deep relative to the per-flow bandwidth-delay
// product so queueing delay — not timeout collapse — is the dominant
// regime, which is where synchronous-loss fairness emerges.
func symmetricConfig(n int, dur float64) Config {
	return Config{
		Flows: SymmetricFlows(n, FlowSpec{
			RTT:    0.08,
			Wm:     64,
			MinRTO: 0.5,
		}),
		Bottleneck: Bottleneck{
			Rate:     20 * float64(n),
			QueueCap: 5 * n,
			OneWay:   0.04,
		},
		Duration: dur,
		Seed:     42,
	}
}

func TestSharedBottleneckConservation(t *testing.T) {
	res := Run(symmetricConfig(4, 200))
	if len(res.Flows) != 4 {
		t.Fatalf("flows = %d, want 4", len(res.Flows))
	}
	for _, f := range res.Flows {
		ls := f.Link
		if ls.Offered == 0 {
			t.Fatalf("flow %d: no packets offered at bottleneck", f.ID)
		}
		if got := ls.Delivered + ls.RandomDrops + ls.QueueDrops; got > ls.Offered {
			t.Errorf("flow %d: delivered+drops = %d > offered %d", f.ID, got, ls.Offered)
		}
		if f.Result.Delivered == 0 {
			t.Errorf("flow %d: receiver saw nothing", f.ID)
		}
		if f.Rate <= 0 || f.Throughput <= 0 {
			t.Errorf("flow %d: rate %v throughput %v", f.ID, f.Rate, f.Throughput)
		}
	}
	if res.Fairness.Utilization <= 0.5 || res.Fairness.Utilization > 1.5 {
		t.Errorf("utilization = %v, want within (0.5, 1.5]", res.Fairness.Utilization)
	}
}

// TestJain exercises the index on known vectors.
func TestJain(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal rates: jain = %v, want 1", got)
	}
	if got := Jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single hog: jain = %v, want 0.25", got)
	}
	if got := Jain(nil); got != 0 {
		t.Errorf("empty: jain = %v, want 0", got)
	}
	if got := Jain([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero: jain = %v, want 0", got)
	}
}

// TestDeterminism: same config, one serial run and runs executed
// concurrently from other goroutines, identical digests (run this under
// -race).
func TestDeterminism(t *testing.T) {
	cfg := symmetricConfig(6, 150)
	want := Run(cfg).Digest()
	if again := Run(cfg).Digest(); again != want {
		t.Fatalf("same config digests differ:\n%s\n%s", want, again)
	}

	const workers = 3
	digests := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			digests[w] = Run(cfg).Digest()
		}(w)
	}
	wg.Wait()
	for w, d := range digests {
		if d != want {
			t.Errorf("worker %d digest differs from serial run", w)
		}
	}
}

// TestSymmetricFairness100 is the acceptance gate: 100 symmetric flows
// through one shared bottleneck must converge to a Jain index of at
// least 0.9.
func TestSymmetricFairness100(t *testing.T) {
	if testing.Short() {
		t.Skip("100-flow campaign is slow")
	}
	cfg := symmetricConfig(100, 400)
	res := Run(cfg)
	if j := res.Fairness.Jain; j < 0.9 {
		t.Errorf("jain = %v, want >= 0.9 (rates min %v max %v)",
			j, minOf(res.Fairness.Rates), maxOf(res.Fairness.Rates))
	}
}

// TestFairnessConvergence starts 8 flows staggered (the late flows are
// maximally disadvantaged early on) and checks that the cumulative Jain
// index improves as the run progresses — AIMD's convergence-to-fairness
// property.
func TestFairnessConvergence(t *testing.T) {
	cfg := symmetricConfig(8, 600)
	for i := range cfg.Flows {
		cfg.Flows[i].Start = 5 * float64(i)
	}
	var eng sim.Engine
	m := New(&eng, cfg)
	m.Start()

	var early, late float64
	eng.RunUntil(60)
	early = Jain(m.SenderRates(60))
	eng.RunUntil(cfg.Duration)
	late = Jain(m.SenderRates(cfg.Duration))

	if late < 0.9 {
		t.Errorf("late jain = %v, want >= 0.9", late)
	}
	if late < early {
		t.Errorf("fairness regressed: early %v -> late %v", early, late)
	}
	res := m.Finish()
	if res.Duration != cfg.Duration {
		t.Errorf("duration = %v, want %v", res.Duration, cfg.Duration)
	}
}

// TestMixedVariants runs Reno, Tahoe and TFRC through one bottleneck
// and checks each makes progress with sane per-flow accounting.
func TestMixedVariants(t *testing.T) {
	cfg := Config{
		Flows: []FlowSpec{
			{Variant: "reno", RTT: 0.08, Wm: 64, MinRTO: 0.5},
			{Variant: "tahoe", RTT: 0.08, Wm: 64, MinRTO: 0.5},
			{Variant: "tfrc", RTT: 0.08},
		},
		Bottleneck: Bottleneck{Rate: 90, QueueCap: 20, OneWay: 0.04},
		Duration:   300,
		Seed:       7,
	}
	res := Run(cfg)
	for _, f := range res.Flows {
		if f.Rate <= 0 {
			t.Errorf("flow %d (%s): rate %v, want > 0", f.ID, f.Variant, f.Rate)
		}
		if f.Link.Offered == 0 {
			t.Errorf("flow %d (%s): no bottleneck traffic attributed", f.ID, f.Variant)
		}
	}
	if res.Flows[2].Variant != "tfrc" {
		t.Fatalf("variant = %q, want tfrc", res.Flows[2].Variant)
	}
}

// TestDisjointModeIndependence: in disjoint mode, adding a second flow
// must not change the first flow's trace — flows share the engine but
// nothing else.
func TestDisjointModeIndependence(t *testing.T) {
	spec := FlowSpec{LossRate: 0.02, Seed: 11}
	solo := Run(Config{Flows: []FlowSpec{spec}, Duration: 80})
	duo := Run(Config{Flows: []FlowSpec{spec, {LossRate: 0.05, Seed: 12}}, Duration: 80})

	a, b := solo.Flows[0], duo.Flows[0]
	if len(a.Result.Trace) != len(b.Result.Trace) {
		t.Fatalf("trace length changed: %d vs %d", len(a.Result.Trace), len(b.Result.Trace))
	}
	for i := range a.Result.Trace {
		if a.Result.Trace[i] != b.Result.Trace[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a.Result.Trace[i], b.Result.Trace[i])
		}
	}
	if a.Result.Stats != b.Result.Stats {
		t.Fatalf("stats changed: %+v vs %+v", a.Result.Stats, b.Result.Stats)
	}
}

// TestPerFlowLossModel: a flow with heavy private loss should see a
// higher measured p and lower throughput than a clean flow on the same
// shared bottleneck.
func TestPerFlowLossModel(t *testing.T) {
	cfg := Config{
		Flows: []FlowSpec{
			{RTT: 0.08, Wm: 64, MinRTO: 0.5},
			{RTT: 0.08, Wm: 64, MinRTO: 0.5, LossRate: 0.05},
		},
		Bottleneck: Bottleneck{Rate: 200, QueueCap: 40, OneWay: 0.04},
		Duration:   300,
		Seed:       3,
	}
	res := Run(cfg)
	clean, lossy := res.Flows[0], res.Flows[1]
	if lossy.P <= clean.P {
		t.Errorf("lossy p %v <= clean p %v", lossy.P, clean.P)
	}
	if lossy.Throughput >= clean.Throughput {
		t.Errorf("lossy throughput %v >= clean %v", lossy.Throughput, clean.Throughput)
	}
	if lossy.Predicted <= 0 {
		t.Errorf("lossy flow with p=%v has no model prediction", lossy.P)
	}
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}
