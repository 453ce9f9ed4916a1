package trace

import (
	"runtime"
	"testing"
	"time"
)

// spoolFeed appends n records over the buffers in an irregular
// interleaving (a fixed LCG picks the buffer), each buffer's records at
// increasing times, the way a population run's flows interleave on one
// engine.
func spoolFeed(bufs []*Buffer, n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x>>33) % len(bufs)
		bufs[j].Append(float64(i)*0.001, Kind(1+i%7), uint64(i), uint64(j), float64(i)/3)
	}
}

// spoolPair returns direct and spooled buffer sets with equal starting
// capacities and stop times: buffer 0 and 2 know their stop time
// (buffer 2 learns it after attaching), the others double.
func spoolPair(s *Spool) (direct, spooled []*Buffer) {
	caps := []int{768, 0, 16, 768, 1}
	for i, c := range caps {
		d, b := NewBuffer(c), NewBuffer(c)
		if i == 0 {
			d.SetStop(60)
			b.SetStop(60)
		}
		s.Attach(b)
		if i == 2 {
			d.SetStop(60)
			b.SetStop(60)
		}
		direct, spooled = append(direct, d), append(spooled, b)
	}
	return direct, spooled
}

func sameRecords(t *testing.T, direct, spooled []*Buffer) {
	t.Helper()
	for i := range direct {
		want, got := direct[i].Records(), spooled[i].Records()
		if len(got) != len(want) || spooled[i].Len() != len(want) {
			t.Fatalf("buffer %d: %d spooled records (Len %d), %d direct", i, len(got), spooled[i].Len(), len(want))
		}
		if cap(got) != cap(want) {
			t.Errorf("buffer %d: spooled capacity %d, direct %d", i, cap(got), cap(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("buffer %d record %d: spooled %v, direct %v", i, k, got[k], want[k])
			}
		}
	}
}

// TestSpoolMatchesDirectAppends: appends through a spool, across many
// batches and with the producer often waiting for a free one, leave
// every buffer with the records and the capacity direct appends give,
// stop-sized growth included.
func TestSpoolMatchesDirectAppends(t *testing.T) {
	s := NewSpool()
	direct, spooled := spoolPair(s)
	const n = 30*spoolBatchLen + 123
	spoolFeed(direct, n)
	spoolFeed(spooled, n)
	sameRecords(t, direct, spooled)
}

// TestSpoolMidRunRecords: a read between appends sees every record
// appended so far, including those still in a partly filled batch, and
// appends continue correctly after it.
func TestSpoolMidRunRecords(t *testing.T) {
	s := NewSpool()
	direct, spooled := spoolPair(s)
	for _, n := range []int{5, spoolBatchLen - 5, 3 * spoolBatchLen, 1} {
		spoolFeed(direct, n)
		spoolFeed(spooled, n)
		sameRecords(t, direct, spooled)
	}
	spooled[3].Reset()
	if spooled[3].Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", spooled[3].Len())
	}
}

// TestSpoolProducerZeroAlloc: appending through a spool allocates
// nothing on the producer side: each run fills one batch, hands it over,
// starts the consumer and drains. The buffer is sized so the consumer
// never grows it.
func TestSpoolProducerZeroAlloc(t *testing.T) {
	s := NewSpool()
	b := NewBuffer(1 << 19)
	s.Attach(b)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < spoolBatchLen; i++ {
			b.Append(1, KindSend, 1, 0, 0)
		}
		s.Drain()
	})
	if allocs != 0 {
		t.Errorf("spooled Append allocates %.2f objects per batch, want 0", allocs)
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

// TestSpoolConsumerExits: the consumer goroutine ends once the batches
// handed to it are applied, whether or not anyone drains the spool.
func TestSpoolConsumerExits(t *testing.T) {
	base := runtime.NumGoroutine()

	s := NewSpool()
	_, spooled := spoolPair(s)
	spoolFeed(spooled, 20*spoolBatchLen)
	s.Drain()
	waitGoroutines(t, base)

	// Dropped with a partial batch never handed over.
	s = NewSpool()
	_, spooled = spoolPair(s)
	spoolFeed(spooled, 20*spoolBatchLen+7)
	waitGoroutines(t, base)
}
