package pftk

// Cross-commit output goldens: SHA-256 digests of whole simulator runs,
// committed under testdata/. The self-consistency tests elsewhere compare
// two runs of the same build; these compare a run with the output of the
// build that wrote the file, so an engine change that reorders events
// fails here even when it is deterministic. Regenerate with
//
//	go test -run TestEngineGolden -update .
//
// only when a change is meant to move simulator output.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pftk/internal/hosts"
	"pftk/internal/multiflow"
	"pftk/internal/netem"
	"pftk/internal/reno"
	"pftk/internal/sim"
	"pftk/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.sha256 engine goldens from the current output")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("%s: digest %s, golden %s", name, got, want)
	}
}

// renoDigest hashes a connection result: the binary-encoded trace, the
// sender counters and the receiver's delivery count.
func renoDigest(t *testing.T, r reno.Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, r.Trace); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "stats %+v delivered %d\n", r.Stats, r.Delivered)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestEngineGoldenMultiflow100 pins a 60-s run of 100 Reno flows through
// one drop-tail bottleneck: constant delays on every link, the
// population workload's shape at a tenth of its size.
func TestEngineGoldenMultiflow100(t *testing.T) {
	const n = 100
	res := multiflow.Run(multiflow.Config{
		Flows:      multiflow.SymmetricFlows(n, multiflow.FlowSpec{RTT: 0.08, Wm: 64, MinRTO: 0.5}),
		Bottleneck: multiflow.Bottleneck{Rate: 20 * n, QueueCap: 5 * n, OneWay: 0.04},
		Duration:   60,
		Seed:       1100,
	})
	checkGolden(t, "multiflow100_60s.sha256", res.Digest())
}

// TestEngineGoldenRenoHour pins one calibrated Table II connection
// (manic-baskerville) over a simulated hour: jittered delays and
// correlated losses.
func TestEngineGoldenRenoHour(t *testing.T) {
	pair, ok := hosts.PairByName("manic-baskerville")
	if !ok {
		t.Fatal("pair manic-baskerville missing from Table II")
	}
	pair = hosts.CalibratedPair(pair, hosts.CalibrateOptions{})
	checkGolden(t, "reno_hour_manic_baskerville.sha256", renoDigest(t, reno.RunConnection(pair.ConnConfig(1), 3600)))
}

// TestEngineGoldenDelayStep pins a connection whose constant one-way
// delay steps down mid-run, so deliveries scheduled right after the step
// are clamped behind those already in flight, and later back up. The
// forward link's rate spreads each window over the round trip, so both
// directions have packets in flight at the step.
func TestEngineGoldenDelayStep(t *testing.T) {
	var eng sim.Engine
	conn := reno.NewConnection(&eng, reno.ConnConfig{
		Sender:   reno.SenderConfig{RWnd: 32, MinRTO: 1},
		Receiver: reno.ReceiverConfig{AckEvery: 2},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{Rate: 100, QueueCap: 20, Delay: netem.ConstantDelay(0.1), Loss: netem.NewBernoulli(0.02, sim.NewRNG(7))},
			Reverse: netem.LinkConfig{Delay: netem.ConstantDelay(0.1)},
		},
	})
	eng.Schedule(30, func() { conn.Path.SetOneWayDelay(netem.ConstantDelay(0.02), netem.ConstantDelay(0.02)) })
	eng.Schedule(45, func() { conn.Path.SetOneWayDelay(netem.ConstantDelay(0.06), netem.ConstantDelay(0.06)) })
	checkGolden(t, "delay_step_down.sha256", renoDigest(t, conn.Run(60)))
}

// TestEngineGoldenReorderWindow pins a connection on jittered links whose
// forward direction enters and leaves a reordering window (the FIFO clamp
// suspended) and, overlapping its end, a duplication window. Deliveries
// hand off between in-order and reordered scheduling twice mid-run, with
// packets of both kinds in flight at each switch.
func TestEngineGoldenReorderWindow(t *testing.T) {
	var eng sim.Engine
	conn := reno.NewConnection(&eng, reno.ConnConfig{
		Sender:   reno.SenderConfig{RWnd: 32, MinRTO: 1},
		Receiver: reno.ReceiverConfig{AckEvery: 2},
		Path: netem.PathConfig{
			Forward: netem.LinkConfig{Rate: 200, QueueCap: 20,
				Delay: &netem.UniformJitterDelay{Base: 0.05, Jitter: 0.03, RNG: sim.NewRNG(3)},
				Loss:  netem.NewBernoulli(0.01, sim.NewRNG(7))},
			Reverse: netem.LinkConfig{Delay: &netem.UniformJitterDelay{Base: 0.05, Jitter: 0.03, RNG: sim.NewRNG(5)}},
		},
	})
	eng.Schedule(20, func() { conn.Path.SetReorder(true) })
	eng.Schedule(35, func() { conn.Path.SetReorder(false) })
	eng.Schedule(30, func() { conn.Path.SetDuplicate(0.05, sim.NewRNG(9)) })
	eng.Schedule(45, func() { conn.Path.SetDuplicate(0, nil) })
	res := conn.Run(70)
	if conn.Path.Forward.Stats().Duplicated == 0 {
		t.Error("the duplication window copied no packet")
	}
	checkGolden(t, "reorder_dup_window.sha256", renoDigest(t, res))
}
