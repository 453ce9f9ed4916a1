package analysis

import (
	"math"
	"testing"

	"pftk/internal/core"
	"pftk/internal/netem"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/stats"
	"pftk/internal/trace"
)

// tdTrace builds a wire-level trace exhibiting one clean fast retransmit:
// packet 5 is lost, three duplicate ACKs arrive, the sender retransmits.
func tdTrace() trace.Trace {
	return trace.Trace{
		{Time: 0.00, Kind: trace.KindSend, Seq: 1},
		{Time: 0.01, Kind: trace.KindSend, Seq: 2},
		{Time: 0.02, Kind: trace.KindSend, Seq: 3},
		{Time: 0.03, Kind: trace.KindSend, Seq: 4},
		{Time: 0.04, Kind: trace.KindSend, Seq: 5}, // lost on the wire
		{Time: 0.05, Kind: trace.KindSend, Seq: 6},
		{Time: 0.06, Kind: trace.KindSend, Seq: 7},
		{Time: 0.07, Kind: trace.KindSend, Seq: 8},
		{Time: 0.10, Kind: trace.KindAck, Ack: 2},
		{Time: 0.11, Kind: trace.KindAck, Ack: 3},
		{Time: 0.12, Kind: trace.KindAck, Ack: 4},
		{Time: 0.13, Kind: trace.KindAck, Ack: 5},
		{Time: 0.15, Kind: trace.KindAck, Ack: 5}, // dup 1 (pkt 6 arrived)
		{Time: 0.16, Kind: trace.KindAck, Ack: 5}, // dup 2
		{Time: 0.17, Kind: trace.KindAck, Ack: 5}, // dup 3
		{Time: 0.18, Kind: trace.KindRetransmit, Seq: 5},
		{Time: 0.28, Kind: trace.KindAck, Ack: 9},
	}
}

// toTrace builds a wire-level trace with a double timeout: packet 3 and
// its first retransmission are lost.
func toTrace() trace.Trace {
	return trace.Trace{
		{Time: 0.0, Kind: trace.KindSend, Seq: 1},
		{Time: 0.0, Kind: trace.KindSend, Seq: 2},
		{Time: 0.1, Kind: trace.KindAck, Ack: 3},
		{Time: 0.1, Kind: trace.KindSend, Seq: 3}, // lost
		{Time: 1.1, Kind: trace.KindRetransmit, Seq: 3},
		{Time: 3.1, Kind: trace.KindRetransmit, Seq: 3},
		{Time: 3.2, Kind: trace.KindAck, Ack: 4},
		{Time: 3.3, Kind: trace.KindSend, Seq: 4}, // lost later
		{Time: 4.3, Kind: trace.KindRetransmit, Seq: 4},
		{Time: 4.4, Kind: trace.KindAck, Ack: 5},
	}
}

func TestInferTDEvent(t *testing.T) {
	events := InferLossEvents(tdTrace(), 3)
	if len(events) != 1 {
		t.Fatalf("events = %+v, want 1", events)
	}
	if events[0].Timeout {
		t.Error("fast retransmit misclassified as timeout")
	}
	if events[0].BackoffDepth() != -1 {
		t.Error("TD event should have backoff depth -1")
	}
}

func TestInferTDRespectsThreshold(t *testing.T) {
	// With a threshold of 4, three dupacks are not enough for a TD
	// classification; since the retransmission follows promptly (no
	// RTO-scale silent gap), it is treated as recovery traffic and not
	// counted as a loss indication at all.
	for _, e := range InferLossEvents(tdTrace(), 4) {
		if !e.Timeout {
			t.Fatalf("event %+v misclassified as TD under threshold 4", e)
		}
	}
	// With the Linux threshold of 2 it remains a TD.
	events := InferLossEvents(tdTrace(), 2)
	if len(events) != 1 || events[0].Timeout {
		t.Fatalf("events = %+v, want one TD", events)
	}
}

func TestInferTimeoutSequences(t *testing.T) {
	events := InferLossEvents(toTrace(), 3)
	if len(events) != 2 {
		t.Fatalf("events = %+v, want 2", events)
	}
	if !events[0].Timeout || events[0].NumTimeouts != 2 {
		t.Errorf("first event = %+v, want double timeout", events[0])
	}
	if !events[1].Timeout || events[1].NumTimeouts != 1 {
		t.Errorf("second event = %+v, want single timeout", events[1])
	}
	// First timeout duration: retx at 1.1 minus last tx at 0.1 = 1.0.
	if math.Abs(events[0].FirstTimeoutDur-1.0) > 1e-9 {
		t.Errorf("first timeout duration = %g, want 1.0", events[0].FirstTimeoutDur)
	}
}

func TestGroundTruthLossEvents(t *testing.T) {
	tr := trace.Trace{
		{Time: 0.0, Kind: trace.KindSend, Seq: 1},
		{Time: 1.0, Kind: trace.KindTDIndication},
		{Time: 2.0, Kind: trace.KindSend, Seq: 2},
		{Time: 3.0, Kind: trace.KindTimeoutFired, Val: 0},
		{Time: 3.0, Kind: trace.KindRetransmit, Seq: 2, Val: 1},
		{Time: 5.0, Kind: trace.KindTimeoutFired, Val: 1},
		{Time: 5.0, Kind: trace.KindRetransmit, Seq: 2, Val: 1},
		{Time: 9.0, Kind: trace.KindTimeoutFired, Val: 2},
		{Time: 9.0, Kind: trace.KindRetransmit, Seq: 2, Val: 1},
		{Time: 20.0, Kind: trace.KindSend, Seq: 3},
		{Time: 30.0, Kind: trace.KindTimeoutFired, Val: 0},
	}
	events := GroundTruthLossEvents(tr)
	if len(events) != 3 {
		t.Fatalf("events = %+v, want 3", events)
	}
	if events[0].Timeout {
		t.Error("first event should be TD")
	}
	if events[1].NumTimeouts != 3 {
		t.Errorf("triple-timeout sequence = %+v", events[1])
	}
	if math.Abs(events[1].FirstTimeoutDur-1.0) > 1e-9 {
		t.Errorf("first timeout duration = %g, want 1.0 (3.0 - 2.0)", events[1].FirstTimeoutDur)
	}
	if events[2].NumTimeouts != 1 {
		t.Errorf("last event = %+v, want single timeout", events[2])
	}
}

func TestKarnRTTSamples(t *testing.T) {
	tr := trace.Trace{
		{Time: 0.0, Kind: trace.KindSend, Seq: 0},
		{Time: 0.0, Kind: trace.KindSend, Seq: 1},
		{Time: 0.2, Kind: trace.KindAck, Ack: 2}, // covers 0 and 1: two samples of 0.2
		{Time: 0.3, Kind: trace.KindSend, Seq: 2},
		{Time: 1.3, Kind: trace.KindRetransmit, Seq: 2},
		{Time: 1.5, Kind: trace.KindAck, Ack: 3}, // seq 2 retransmitted: Karn says skip
	}
	samples := KarnRTTSamples(tr)
	// One-at-a-time timing: only seq 0 is timed in the first window, and
	// the retransmitted seq 2 yields no sample (Karn's rule).
	if len(samples) != 1 {
		t.Fatalf("samples = %v, want 1", samples)
	}
	if math.Abs(samples[0]-0.2) > 1e-9 {
		t.Errorf("sample = %g, want 0.2", samples[0])
	}
}

func TestKarnIgnoresDuplicateAcks(t *testing.T) {
	tr := trace.Trace{
		{Time: 0.0, Kind: trace.KindSend, Seq: 0},
		{Time: 0.2, Kind: trace.KindAck, Ack: 1},
		{Time: 0.3, Kind: trace.KindAck, Ack: 1}, // dup: must not re-sample
	}
	if samples := KarnRTTSamples(tr); len(samples) != 1 {
		t.Fatalf("samples = %v, want 1", samples)
	}
}

func TestSummarize(t *testing.T) {
	events := []LossEvent{
		{Time: 1, Timeout: false},
		{Time: 2, Timeout: true, NumTimeouts: 1, FirstTimeoutDur: 1.0},
		{Time: 3, Timeout: true, NumTimeouts: 2, FirstTimeoutDur: 2.0},
		{Time: 4, Timeout: true, NumTimeouts: 6},
		{Time: 5, Timeout: true, NumTimeouts: 9},
	}
	tr := trace.Trace{
		{Time: 0, Kind: trace.KindSend, Seq: 1},
		{Time: 0.1, Kind: trace.KindSend, Seq: 2},
		{Time: 0.2, Kind: trace.KindAck, Ack: 3},
		{Time: 10, Kind: trace.KindRetransmit, Seq: 3},
	}
	s := Summarize(tr, events)
	if s.PacketsSent != 3 {
		t.Errorf("PacketsSent = %d, want 3", s.PacketsSent)
	}
	if s.LossIndications != 5 || s.TD != 1 {
		t.Errorf("loss=%d td=%d, want 5/1", s.LossIndications, s.TD)
	}
	if s.TimeoutHist != [6]int{1, 1, 0, 0, 0, 2} {
		t.Errorf("hist = %v", s.TimeoutHist)
	}
	if s.TimeoutSequences() != 4 {
		t.Errorf("sequences = %d, want 4", s.TimeoutSequences())
	}
	if math.Abs(s.P-5.0/3) > 1e-9 {
		t.Errorf("P = %g", s.P)
	}
	if math.Abs(s.MeanT0-1.5) > 1e-9 {
		t.Errorf("MeanT0 = %g, want 1.5", s.MeanT0)
	}
	if math.Abs(s.MeanRTT-0.2) > 1e-9 {
		t.Errorf("MeanRTT = %g, want 0.2 (single timed segment)", s.MeanRTT)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestIntervals(t *testing.T) {
	tr := trace.Trace{
		{Time: 0, Kind: trace.KindSend, Seq: 1},
		{Time: 50, Kind: trace.KindSend, Seq: 2},
		{Time: 150, Kind: trace.KindSend, Seq: 3},
		{Time: 150, Kind: trace.KindRetransmit, Seq: 3},
		{Time: 250, Kind: trace.KindSend, Seq: 4},
	}
	events := []LossEvent{
		{Time: 150, Timeout: true, NumTimeouts: 2},
		{Time: 160, Timeout: true, NumTimeouts: 1},
		{Time: 250, Timeout: false},
	}
	ivs := Intervals(tr, events, 100)
	if len(ivs) != 3 {
		t.Fatalf("intervals = %d, want 3", len(ivs))
	}
	if ivs[0].Packets != 2 || ivs[0].LossIndications != 0 {
		t.Errorf("interval 0 = %+v", ivs[0])
	}
	if ivs[0].Category() != "TD" {
		t.Errorf("interval 0 category = %s (no losses counts as TD)", ivs[0].Category())
	}
	if ivs[1].Packets != 2 || ivs[1].LossIndications != 2 {
		t.Errorf("interval 1 = %+v", ivs[1])
	}
	if ivs[1].Category() != "T1" {
		t.Errorf("interval 1 category = %s, want T1 (double timeout)", ivs[1].Category())
	}
	if ivs[1].P() != 1.0 {
		t.Errorf("interval 1 p = %g", ivs[1].P())
	}
	if ivs[2].Category() != "TD" || ivs[2].LossIndications != 1 {
		t.Errorf("interval 2 = %+v cat=%s", ivs[2], ivs[2].Category())
	}
}

func TestIntervalsEdgeCases(t *testing.T) {
	if ivs := Intervals(nil, nil, 100); ivs != nil {
		t.Error("empty trace should give nil")
	}
	if ivs := Intervals(trace.Trace{{Time: 1, Kind: trace.KindSend}}, nil, 0); ivs != nil {
		t.Error("zero width should give nil")
	}
	// Records exactly at the boundary go to the last interval.
	tr := trace.Trace{
		{Time: 0, Kind: trace.KindSend, Seq: 1},
		{Time: 200, Kind: trace.KindSend, Seq: 2},
	}
	ivs := Intervals(tr, nil, 100)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	if ivs[1].Packets != 1 {
		t.Errorf("boundary record placement: %+v", ivs)
	}
}

func TestModelErrorPerfectAndBiased(t *testing.T) {
	pr := core.NewParams(0.1, 1.0, 50)
	// Construct an interval whose packet count matches the model
	// exactly: error must be ~0 for the full model and larger for a
	// model that overestimates.
	p := 0.05
	n := core.SendRateFull(p, pr) * 100
	iv := Interval{Start: 0, End: 100, Packets: int(n + 0.5), MaxBackoff: 0}
	iv.LossIndications = int(p*float64(iv.Packets) + 0.5)
	ivs := []Interval{iv}
	errFull := ModelError(ivs, core.ModelFull, pr)
	errTD := ModelError(ivs, core.ModelTDOnly, pr)
	if errFull > 0.1 {
		t.Errorf("full model error = %g on self-consistent interval", errFull)
	}
	if errTD < errFull {
		t.Errorf("TD-only error %g should exceed full-model error %g", errTD, errFull)
	}
	// Zero-packet intervals are skipped.
	if got := ModelError([]Interval{{Start: 0, End: 100}}, core.ModelFull, pr); !math.IsNaN(got) {
		t.Errorf("all-empty intervals should give NaN, got %g", got)
	}
}

// TestInferenceMatchesGroundTruthOnSimulatedTraces is the analyzer's
// validation: the wire-level inference must reconstruct the simulator's
// ground truth loss indications.
func TestInferenceMatchesGroundTruthOnSimulatedTraces(t *testing.T) {
	for _, drop := range []float64{0.02, 0.05, 0.1} {
		cfg := reno.ConnConfig{
			Sender: reno.SenderConfig{RWnd: 16, MinRTO: 1.0},
			Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(drop, sim.NewRNG(uint64(drop*1e4)))),
		}
		res := reno.RunConnection(cfg, 1000)
		gt := GroundTruthLossEvents(res.Trace)
		inf := InferLossEvents(res.Trace, 3)

		gtSum := Summarize(res.Trace, gt)
		infSum := Summarize(res.Trace, inf)

		if gtSum.TD != res.Stats.TDEvents {
			t.Errorf("drop=%g: ground-truth TD %d != stats %d", drop, gtSum.TD, res.Stats.TDEvents)
		}
		if gtSum.TimeoutSequences() != res.Stats.TimeoutsByBackoff[0] {
			t.Errorf("drop=%g: ground-truth sequences %d != backoff-0 fires %d",
				drop, gtSum.TimeoutSequences(), res.Stats.TimeoutsByBackoff[0])
		}
		// Inference from the wire must agree closely (a few events can
		// differ near trace boundaries and overlapping recoveries).
		tdDiff := math.Abs(float64(infSum.TD - gtSum.TD))
		if tdDiff > 0.1*float64(gtSum.TD)+3 {
			t.Errorf("drop=%g: inferred TD %d vs ground truth %d", drop, infSum.TD, gtSum.TD)
		}
		seqDiff := math.Abs(float64(infSum.TimeoutSequences() - gtSum.TimeoutSequences()))
		if seqDiff > 0.1*float64(gtSum.TimeoutSequences())+3 {
			t.Errorf("drop=%g: inferred TO sequences %d vs ground truth %d",
				drop, infSum.TimeoutSequences(), gtSum.TimeoutSequences())
		}
		// The streamed mean is the mean of the collected samples, bit
		// for bit, and costs no allocation.
		if want := stats.Mean(KarnRTTSamples(res.Trace)); math.Float64bits(gtSum.MeanRTT) != math.Float64bits(want) {
			t.Errorf("drop=%g: MeanRTT %v, mean of Karn samples %v", drop, gtSum.MeanRTT, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { Summarize(res.Trace, gt) }); allocs != 0 {
			t.Errorf("drop=%g: Summarize allocates %.0f times, want 0", drop, allocs)
		}
		// RTT estimate should be near the configured 0.1 s path RTT.
		if gtSum.MeanRTT < 0.09 || gtSum.MeanRTT > 0.2 {
			t.Errorf("drop=%g: Karn RTT = %g, want ~0.1", drop, gtSum.MeanRTT)
		}
		// Mean T0 should be near the sender's 1 s MinRTO.
		if gtSum.MeanT0 < 0.8 || gtSum.MeanT0 > 2.0 {
			t.Errorf("drop=%g: mean T0 = %g, want ~1", drop, gtSum.MeanT0)
		}
	}
}

func TestRoundCorrelationNearZeroOnCleanPath(t *testing.T) {
	cfg := reno.ConnConfig{
		Sender: reno.SenderConfig{RWnd: 16, MinRTO: 1.0},
		Path:   netem.SymmetricPath(0.05, netem.NewBernoulli(0.02, sim.NewRNG(42))),
	}
	res := reno.RunConnection(cfg, 2000)
	rho := RoundCorrelation(res.Trace)
	if math.IsNaN(rho) {
		t.Fatal("no round samples")
	}
	if math.Abs(rho) > 0.25 {
		t.Errorf("correlation = %g on constant-delay path, want near 0", rho)
	}
}

func TestRoundCorrelationHighOnModemPath(t *testing.T) {
	// Fig. 11 regime: slow bottleneck with a deep dedicated buffer; RTT
	// is dominated by queueing, which scales with the window.
	cfg := reno.ConnConfig{
		Sender: reno.SenderConfig{RWnd: 22, MinRTO: 1.0},
		Path:   netem.ModemPath(3.5, 40, 0.05),
	}
	res := reno.RunConnection(cfg, 2000)
	rho := RoundCorrelation(res.Trace)
	if math.IsNaN(rho) {
		t.Fatal("no round samples")
	}
	if rho < 0.6 {
		t.Errorf("modem-path correlation = %g, want high (paper reports up to 0.97)", rho)
	}
}
