package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pftk"
	"pftk/internal/hosts"
	"pftk/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/obs_*.json from the current registry snapshots")

// checkSnapshotGolden compares the JSON form of snap with testdata/name,
// or rewrites the file under -update. Every counter, gauge (value and
// high-water mark) and histogram (buckets, count, sum) is pinned, so a
// change to how a metric is gathered must reproduce it exactly.
func checkSnapshotGolden(t *testing.T, name string, snap obs.Snapshot) {
	t.Helper()
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: registry snapshot differs from the golden\ngot:\n%s", name, got)
	}
}

// TestObsSnapshotGoldenRunPair pins the metric snapshot of one
// instrumented Table II run (void-sutton: TD and timeout indications,
// backoff past the first doubling).
func TestObsSnapshotGoldenRunPair(t *testing.T) {
	reg := obs.New()
	run := runPair(hosts.TableII()[13], 400, 3, 100, reg)
	if run.Obs == nil {
		t.Fatal("observed run has no snapshot")
	}
	checkSnapshotGolden(t, "obs_runpair.json", *run.Obs)
}

// goldenScenario queues the forward link behind a finite rate, opens a
// duplication window, cuts the path long enough for backed-off
// timeouts, and then makes the link infinitely fast while packets wait,
// so the backlog drains at once.
const goldenScenario = `{
  "name": "obs-golden",
  "phases": [
    {"at": 10, "rate": 40, "queue_cap": 6},
    {"at": 45, "rate": 0}
  ],
  "faults": [
    {"kind": "duplicate", "start": 20, "dur": 10, "prob": 0.2},
    {"kind": "outage", "start": 32, "dur": 6}
  ]
}`

// TestObsSnapshotGoldenSim pins the metric snapshot of a pftk.Sim run
// whose scenario reaches every link code path: loss drops, drop-tail
// overflow, queueing and service, duplication, and the drain when the
// rate turns infinite with a backlog.
func TestObsSnapshotGoldenSim(t *testing.T) {
	sc, err := pftk.ParseScenario([]byte(goldenScenario))
	if err != nil {
		t.Fatal(err)
	}
	reg := pftk.NewRegistry()
	pftk.Sim(
		pftk.WithPath(0.1),
		pftk.WithLoss(0.01),
		pftk.WithDuration(60),
		pftk.WithSeed(28),
		pftk.WithScenario(sc),
		pftk.WithObs(reg),
	)
	snap := reg.Snapshot()
	for _, name := range []string{"netem.fwd.drops.loss", "netem.fwd.drops.fifo", "reno.indications.td", "reno.timeouts.fired"} {
		if snap.Counter(name) == 0 {
			t.Errorf("%s = 0: the scenario no longer exercises it", name)
		}
	}
	if snap.Gauges["netem.fwd.queue"].Max == 0 {
		t.Error("forward queue never held a packet")
	}
	checkSnapshotGolden(t, "obs_sim.json", snap)
}
