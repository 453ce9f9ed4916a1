package reno_test

import (
	"testing"

	"pftk/internal/hosts"
	"pftk/internal/reno"
	"pftk/internal/sim"
)

// TestRunTraceIndependentOfStopTime: Connection.Run sizes trace growth
// from its stop time, which must change only the buffer's capacity. For
// every Table II pair, a 600-s run's trace equals, record for record,
// the same run driven by hand with no stop time set.
func TestRunTraceIndependentOfStopTime(t *testing.T) {
	const dur = 600
	for _, p := range hosts.TableII() {
		got := reno.RunConnection(p.ConnConfig(1), dur).Trace

		var eng sim.Engine
		c := reno.NewConnection(&eng, p.ConnConfig(1))
		c.Sender.Start()
		eng.RunUntil(dur)
		c.Sender.Stop()
		want := c.Sender.Trace()

		if len(got) != len(want) {
			t.Fatalf("%s: %d records with stop time, %d without", p.Name(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d differs: %v vs %v", p.Name(), i, got[i], want[i])
			}
		}
	}
}
