package sim

import "testing"

// nop is a static callback so scheduling it never captures variables.
func nop() {}

// fill pre-schedules n nop events at distinct times.
func fill(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.Schedule(float64(i), nop)
	}
}

// BenchmarkSimStep measures the hot loop alone: Step must run
// allocation-free (the Event allocation belongs to Schedule, outside the
// timed region). TestStepZeroAlloc asserts the same property so a
// regression fails `go test`, not just a benchmark reader.
func BenchmarkSimStep(b *testing.B) {
	var e Engine
	fill(&e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue drained early")
		}
	}
}

// BenchmarkSimScheduleStep covers the full schedule+fire cycle (one
// Event allocation per op by design).
func BenchmarkSimScheduleStep(b *testing.B) {
	var e Engine
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(float64(i), nop)
		e.Step()
	}
}

// TestStepZeroAlloc asserts that Step allocates nothing per event.
func TestStepZeroAlloc(t *testing.T) {
	var e Engine
	fill(&e, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if !e.Step() {
			t.Fatal("queue drained early")
		}
	})
	if allocs != 0 {
		t.Errorf("Step allocates %.1f objects per op, want 0", allocs)
	}
}
