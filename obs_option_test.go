package pftk_test

import (
	"testing"

	"pftk"
)

// TestWithObsDoesNotPerturb pins the WithObs contract: attaching a
// metric registry (and a link-stats sink) must not change the simulated
// outcome — the trace, the counters, everything byte for byte.
func TestWithObsDoesNotPerturb(t *testing.T) {
	base := []pftk.SimOption{
		pftk.WithPath(0.2),
		pftk.WithLoss(0.02),
		pftk.WithDuration(50),
		pftk.WithSeed(7),
	}
	plain := pftk.Sim(base...)

	reg := pftk.NewRegistry()
	var ls pftk.PathStats
	observed := pftk.Sim(append(append([]pftk.SimOption{}, base...),
		pftk.WithObs(reg), pftk.WithLinkStats(&ls))...)

	if len(plain.Trace) != len(observed.Trace) {
		t.Fatalf("trace length changed under observation: %d vs %d", len(plain.Trace), len(observed.Trace))
	}
	for i := range plain.Trace {
		if plain.Trace[i] != observed.Trace[i] {
			t.Fatalf("trace record %d changed under observation: %+v vs %+v", i, plain.Trace[i], observed.Trace[i])
		}
	}
	if plain.Stats != observed.Stats {
		t.Fatalf("sender stats changed under observation: %+v vs %+v", plain.Stats, observed.Stats)
	}
}

// TestWithLinkStatsMatchesSender pins that the link and the sender,
// two separate records of the same run, agree: the forward link was
// offered exactly the sender's transmissions.
func TestWithLinkStatsMatchesSender(t *testing.T) {
	var ls pftk.PathStats
	res := pftk.Sim(
		pftk.WithPath(0.1),
		pftk.WithLoss(0.05),
		pftk.WithDuration(60),
		pftk.WithSeed(11),
		pftk.WithLinkStats(&ls),
	)
	if got, want := ls.Forward.Offered, res.Stats.TotalSent(); got != want {
		t.Errorf("forward link offered %d packets, sender sent %d", got, want)
	}
	if ls.Forward.RandomDrops == 0 {
		t.Error("5% loss over 60s produced no random drops")
	}
}
