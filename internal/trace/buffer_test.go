package trace

import (
	"math"
	"testing"
)

func TestBufferAppendAndRecords(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Append(float64(i), KindSend, uint64(i), 0, 0)
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d, want 10", b.Len())
	}
	recs := b.Records()
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i)
		}
	}
	if !recs.Sorted() {
		t.Error("records out of time order")
	}
}

func TestBufferZeroCapacityUsable(t *testing.T) {
	b := NewBuffer(0)
	b.Append(0, KindAck, 0, 7, 0)
	if b.Len() != 1 || b.Records()[0].Ack != 7 {
		t.Errorf("records = %v", b.Records())
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(8)
	for i := 0; i < 20; i++ {
		b.Append(float64(i), KindSend, 0, 0, 0)
	}
	c := cap(b.recs)
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", b.Len())
	}
	if cap(b.recs) != c {
		t.Errorf("Reset dropped capacity: %d -> %d", c, cap(b.recs))
	}
}

// growthLog appends n records at a constant rate (one every dt seconds
// from t=0) to a fresh 768-record buffer with the given stop time, and
// returns the buffer and the number of reallocations.
func growthLog(n int, dt, stop float64) (*Buffer, int) {
	b := NewBuffer(768)
	b.SetStop(stop)
	grows := 0
	for i := 0; i < n; i++ {
		c := cap(b.recs)
		b.Append(float64(i)*dt, KindSend, uint64(i), 0, 0)
		if cap(b.recs) != c {
			grows++
		}
	}
	return b, grows
}

// TestBufferStopSizedGrowth: with a known stop time, a stationary record
// stream reaches its final size in a few steps and ends with little
// slack, and the records are exactly those captured without a stop time.
func TestBufferStopSizedGrowth(t *testing.T) {
	for _, n := range []int{769, 5000, 100000, 720000} {
		const dt = 0.005
		stop := float64(n) * dt
		b, grows := growthLog(n, dt, stop)
		if grows > 3 {
			t.Errorf("n=%d: grew %d times, want at most 3", n, grows)
		}
		if limit := len(b.recs) + len(b.recs)/4 + 768; cap(b.recs) > limit {
			t.Errorf("n=%d: cap %d > 1.25*len + 768 = %d", n, cap(b.recs), limit)
		}
		plain, _ := growthLog(n, dt, 0)
		if len(plain.recs) != len(b.recs) {
			t.Fatalf("n=%d: %d records with stop time, %d without", n, len(b.recs), len(plain.recs))
		}
		for i := range b.recs {
			if b.recs[i] != plain.recs[i] {
				t.Fatalf("n=%d: record %d differs: %v vs %v", n, i, b.recs[i], plain.recs[i])
			}
		}
	}
}

// TestBufferUnusableStopDoubles: a stop time that is unset, already
// passed when the buffer first fills (the 769th record arrives at
// 7.68 s) or not finite leaves growth at plain doubling.
func TestBufferUnusableStopDoubles(t *testing.T) {
	const n, dt = 10000, 0.01
	want, _ := growthLog(n, dt, 0)
	for _, stop := range []float64{0, -5, 5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, _ := growthLog(n, dt, stop)
		if cap(b.recs) != cap(want.recs) {
			t.Errorf("stop=%g: cap %d, want doubling's %d", stop, cap(b.recs), cap(want.recs))
		}
	}
	if c := cap(want.recs); c != 12288 {
		t.Errorf("doubling from 768 to hold %d records: cap %d, want 12288", n, c)
	}
}

// TestBufferStopNoElapsedTime: records that all share one timestamp give
// no rate to project from, so growth doubles.
func TestBufferStopNoElapsedTime(t *testing.T) {
	b := NewBuffer(4)
	b.SetStop(100)
	for i := 0; i < 5; i++ {
		b.Append(1, KindSend, 0, 0, 0)
	}
	if cap(b.recs) != 256 {
		t.Errorf("cap = %d, want the 256-record minimum", cap(b.recs))
	}
}

// TestBufferAppendSteadyStateZeroAlloc: once grown past the working size,
// Append never reallocates — the property that keeps trace capture off
// the simulator's allocation budget between growth steps.
func TestBufferAppendSteadyStateZeroAlloc(t *testing.T) {
	b := NewBuffer(4096)
	allocs := testing.AllocsPerRun(500, func() {
		if b.Len() == 4096 {
			b.Reset()
		}
		b.Append(1, KindSend, 1, 0, 0)
	})
	if allocs != 0 {
		t.Errorf("Append within capacity allocates %.1f objects per op, want 0", allocs)
	}
}

// TestBufferAppendAmortizedGrowth: filling a NewBuffer(1024) with
// 100,000 records allocates only at its growth steps, seven doublings to
// 131,072 records, so per record the capture cost rounds to the 0
// allocs/op BenchmarkTraceAppend records.
func TestBufferAppendAmortizedGrowth(t *testing.T) {
	const records, doublings = 100000, 7
	allocs := testing.AllocsPerRun(1, func() {
		b := NewBuffer(1024)
		for i := 0; i < records; i++ {
			b.Append(float64(i), KindSend, uint64(i), 0, 0)
		}
	})
	// The Buffer, its first 1024-record array, one array per doubling.
	if want := 2.0 + doublings; allocs > want {
		t.Errorf("%d appends from NewBuffer(1024) allocate %v times, want at most %v", records, allocs, want)
	}
}

// BenchmarkTraceAppend measures the amortized per-record capture cost,
// growth steps included.
func BenchmarkTraceAppend(b *testing.B) {
	buf := NewBuffer(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Append(float64(i), KindSend, uint64(i), 0, 0)
	}
}
