package pftk

// Facade-level multi-flow tests: the lockstep oracle (disjoint flows
// reproduce independent single-flow runs byte for byte), the
// WithTransfer option-mapping pins, and the guarantee
// that the redesigned SimResult leaves the single-flow path untouched.

import (
	"fmt"
	"testing"
)

// TestLockstepOracle runs N flows on disjoint paths inside ONE engine
// and checks each is byte-identical to the same flow run alone through
// the single-flow facade: sharing an event queue must not perturb
// anything. This is the oracle that licenses the multi-flow engine's
// construction — any cross-flow state leak breaks it.
func TestLockstepOracle(t *testing.T) {
	flows := []Flow{
		{LossRate: 0.02, Wm: 32, Seed: 101},
		{Variant: "tahoe", LossRate: 0.05, Wm: 16, MinRTO: 0.5, Seed: 102},
		{LossRate: 0.01, BurstDur: 0.15, Wm: 64, AckEvery: 1, Seed: 103},
	}
	const dur = 120
	multi := Sim(WithFlows(flows...), WithDuration(dur))
	if len(multi.FlowResults) != len(flows) {
		t.Fatalf("FlowResults = %d, want %d", len(multi.FlowResults), len(flows))
	}

	for i, f := range flows {
		solo := Sim(
			WithOS(f.Variant),
			WithBurstLoss(f.LossRate, f.BurstDur),
			WithWindow(f.Wm),
			WithMinRTO(f.MinRTO),
			WithDelayedACKs(f.AckEvery),
			WithSeed(f.Seed),
			WithDuration(dur),
		)
		got := multi.FlowResults[i].Result
		if len(got.Trace) != len(solo.Trace) {
			t.Fatalf("flow %d: trace length %d, solo %d", i, len(got.Trace), len(solo.Trace))
		}
		for j := range got.Trace {
			if got.Trace[j] != solo.Trace[j] {
				t.Fatalf("flow %d: trace diverges at %d: %v vs %v",
					i, j, got.Trace[j], solo.Trace[j])
			}
		}
		if got.Stats != solo.Stats {
			t.Errorf("flow %d: stats %+v, solo %+v", i, got.Stats, solo.Stats)
		}
		if got.Delivered != solo.Delivered {
			t.Errorf("flow %d: delivered %d, solo %d", i, got.Delivered, solo.Delivered)
		}
	}
}

// TestTransferPins pins the finite-transfer path: the WithTransfer
// option and the equivalent SimConfig run directly must return the exact
// same completion times, and those times are pinned to the values the
// construction has produced since the seed (any drift means the
// transfer path's RNG or event order changed).
func TestTransferPins(t *testing.T) {
	cases := []struct {
		name     string
		cfg      SimConfig
		n        int
		deadline float64
	}{
		{"clean", SimConfig{RTT: 0.1, Wm: 16, Seed: 1}, 200, 120},
		{"lossy", SimConfig{RTT: 0.1, LossRate: 0.05, Wm: 16, MinRTO: 1, Seed: 2}, 200, 600},
		{"burst", SimConfig{RTT: 0.1, LossRate: 0.02, BurstDur: 0.15, Wm: 16, MinRTO: 1, Seed: 3}, 200, 600},
	}
	for _, c := range cases {
		cfg := c.cfg
		cfg.totalPackets, cfg.transferDeadline = uint64(c.n), c.deadline
		direct := runSim(cfg).TransferTime
		res := Sim(
			WithPath(c.cfg.RTT),
			WithBurstLoss(c.cfg.LossRate, c.cfg.BurstDur),
			WithWindow(c.cfg.Wm),
			WithMinRTO(c.cfg.MinRTO),
			WithSeed(c.cfg.Seed),
			WithTransfer(c.n, c.deadline),
		)
		if res.TransferTime != direct {
			t.Errorf("%s: WithTransfer = %v, direct config = %v", c.name, res.TransferTime, direct)
		}
		if !res.TransferComplete {
			t.Errorf("%s: transfer did not complete (time %v)", c.name, res.TransferTime)
		}
		if res.Delivered < uint64(c.n) {
			t.Errorf("%s: delivered %d < %d", c.name, res.Delivered, c.n)
		}
	}
}

// TestTransferDeadline: an impossible deadline reports non-completion
// and returns the deadline.
func TestTransferDeadline(t *testing.T) {
	res := Sim(WithPath(0.2), WithWindow(4), WithSeed(9), WithTransfer(10000, 5))
	if res.TransferComplete {
		t.Fatal("10000 packets through a 4-packet window in 5 s reported complete")
	}
	if res.TransferTime != 5 {
		t.Errorf("TransferTime = %v, want deadline 5", res.TransferTime)
	}
}

// TestSingleFlowResultShape: the redesigned SimResult must leave
// single-flow runs exactly as before — same trace through the embedded
// Result, no multi-flow or transfer fields populated.
func TestSingleFlowResultShape(t *testing.T) {
	res := Sim(WithLoss(0.02), WithSeed(7), WithDuration(50))
	direct := runSim(SimConfig{LossRate: 0.02, Seed: 7, Duration: 50})
	if fmt.Sprintf("%v", res.Trace) != fmt.Sprintf("%v", direct.Trace) {
		t.Fatal("Sim and the direct config run traces differ")
	}
	if res.Flows != nil || res.FlowResults != nil {
		t.Errorf("single-flow run populated Flows/FlowResults")
	}
	if res.Fairness.Jain != 0 || res.TransferTime != 0 || res.TransferComplete {
		t.Errorf("single-flow run populated multi-flow/transfer fields: %+v", res.Fairness)
	}
}

// TestWithFlowCountSharedBottleneck drives the symmetric fairness
// population through the public facade and checks the per-flow
// summaries and fairness aggregates are populated coherently.
func TestWithFlowCountSharedBottleneck(t *testing.T) {
	const n = 8
	res := Sim(
		WithPath(0.08),
		WithWindow(64),
		WithMinRTO(0.5),
		WithFlowCount(n),
		WithBottleneck(Bottleneck{Rate: 20 * n, QueueCap: 5 * n, OneWay: 0.04}),
		WithDuration(400),
		WithSeed(42),
	)
	if len(res.Flows) != n || len(res.FlowResults) != n {
		t.Fatalf("flows = %d/%d, want %d", len(res.Flows), len(res.FlowResults), n)
	}
	if res.Fairness.Jain < 0.9 {
		t.Errorf("jain = %v, want >= 0.9", res.Fairness.Jain)
	}
	if res.Fairness.Utilization < 0.5 {
		t.Errorf("utilization = %v, want >= 0.5", res.Fairness.Utilization)
	}
	for i, sum := range res.Flows {
		fr := res.FlowResults[i]
		if sum.PacketsSent == 0 {
			t.Errorf("flow %d: summary has no packets", i)
		}
		if sum.PacketsSent != fr.Result.Stats.PacketsSent+fr.Result.Stats.Retransmits {
			t.Errorf("flow %d: summary sent %d != stats %d+%d",
				i, sum.PacketsSent, fr.Result.Stats.PacketsSent, fr.Result.Stats.Retransmits)
		}
		if fr.P > 0 && fr.Predicted <= 0 {
			t.Errorf("flow %d: p=%v but no prediction", i, fr.P)
		}
	}
	// The embedded Result mirrors flow 0 for drop-in consumers.
	if res.Stats != res.FlowResults[0].Result.Stats {
		t.Errorf("embedded Result is not flow 0's")
	}
}
