package experiments

import (
	"bytes"
	"strings"
	"testing"

	"pftk/internal/analysis"
	"pftk/internal/hosts"
	"pftk/internal/obs"
)

// TestRunPairObservedReconciles pins the acceptance contract of the
// observability layer: the metric counters of an instrumented run agree
// exactly with the ground-truth analysis of the same trace.
func TestRunPairObservedReconciles(t *testing.T) {
	// void-sutton exercises both TD and timeout indications heavily.
	p := hosts.TableII()[13]
	reg := obs.New()
	run := runPair(p, 400, 3, 100, reg)
	if run.Obs == nil {
		t.Fatal("observed run has no snapshot")
	}
	snap := *run.Obs

	gt := analysis.Summarize(run.Result.Trace, analysis.GroundTruthLossEvents(run.Result.Trace))
	if gt.TD == 0 {
		t.Fatalf("run must exercise TD indications (gt=%+v)", gt)
	}
	if got := snap.Counter("reno.indications.td"); got != uint64(gt.TD) {
		t.Errorf("td counter = %d, ground-truth summary TD = %d", got, gt.TD)
	}
	if got := snap.Counter("reno.timeouts.sequences"); got != uint64(gt.TimeoutSequences()) {
		t.Errorf("timeout sequences = %d, ground-truth = %d", got, gt.TimeoutSequences())
	}
	st := run.Result.Stats
	if got := snap.Counter("netem.fwd.offered"); got != uint64(st.TotalSent()) {
		t.Errorf("forward offered = %d, sender total sent = %d", got, st.TotalSent())
	}
	fwdLost := snap.Counter("netem.fwd.drops.loss") + snap.Counter("netem.fwd.drops.fifo") + snap.Counter("netem.fwd.drops.red")
	if got := snap.Counter("netem.fwd.delivered"); got+fwdLost != uint64(st.TotalSent()) {
		t.Errorf("forward delivered(%d) + dropped(%d) != offered(%d)", got, fwdLost, st.TotalSent())
	}
	if snap.Counter("sim.events") == 0 {
		t.Error("no engine events recorded")
	}
	if run.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %g, want > 0", run.WallSeconds)
	}
}

// TestRunPairObsDisabled confirms the plain entry point collects nothing
// and that instrumentation does not perturb the simulation.
func TestRunPairObsDisabled(t *testing.T) {
	p := hosts.TableII()[0]
	plain := RunPair(p, 120, 5, 100)
	if plain.Obs != nil {
		t.Error("un-observed run carries a snapshot")
	}
	observed := runPair(p, 120, 5, 100, obs.New())
	if plain.Result.Stats != observed.Result.Stats {
		t.Errorf("observability perturbed the run:\nplain=%+v\n  obs=%+v",
			plain.Result.Stats, observed.Result.Stats)
	}
}

// TestShortCampaignMetricsExport runs an abbreviated short campaign with
// a JSONL metrics writer and progress reporter, then validates the
// export against the documented schema.
func TestShortCampaignMetricsExport(t *testing.T) {
	var raw, progress bytes.Buffer
	w := obs.NewJSONLWriter(&raw)
	o := Options{ShortTraces: 2, ShortTraceDuration: 30, Salt: 4, Metrics: w, Progress: &progress}
	sc := RunShortCampaign(o)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	want := len(sc.Pairs) * 2
	if w.Records() != want {
		t.Errorf("wrote %d records, want %d", w.Records(), want)
	}
	n, err := obs.ValidateMetricsJSONL(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatalf("exported JSONL fails validation: %v", err)
	}
	if n != want {
		t.Errorf("validator counted %d records, want %d", n, want)
	}
	if !strings.Contains(raw.String(), `"experiment":"short"`) {
		t.Error("records missing the experiment label")
	}
	// Every run must also carry its snapshot in-memory.
	for i := range sc.Runs {
		for j := range sc.Runs[i] {
			if sc.Runs[i][j].Obs == nil {
				t.Fatalf("run [%d][%d] has nil snapshot despite metrics writer", i, j)
			}
		}
	}
	out := progress.String()
	if !strings.Contains(out, "short campaign") || !strings.Contains(out, "done:") {
		t.Errorf("progress output missing status lines:\n%s", out)
	}
}

// TestHourCampaignObsFlag checks Options.Obs alone (no writer) attaches
// snapshots.
func TestHourCampaignObsFlag(t *testing.T) {
	c := RunCampaign(Options{HourTraceDuration: 60, Salt: 2, Obs: true})
	if len(c.Runs) == 0 {
		t.Fatal("empty campaign")
	}
	for _, r := range c.Runs {
		if r.Obs == nil {
			t.Fatalf("run %s has nil snapshot despite Obs", r.Pair.Name())
		}
		if r.Obs.Counter("sim.events") == 0 {
			t.Fatalf("run %s recorded no engine events", r.Pair.Name())
		}
	}
}
