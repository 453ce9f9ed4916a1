package sim

import (
	"testing"

	"pftk/internal/obs"
)

// nop is a static callback so scheduling it never captures variables.
func nop() {}

// fill pre-schedules n nop events at distinct times.
func fill(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.Schedule(float64(i), nop)
	}
}

// BenchmarkSimStepObsDisabled is the hot-loop guard required by the
// observability layer: with no hooks installed, Step must run
// allocation-free (the Event allocation belongs to Schedule, outside the
// timed region). TestStepDisabledMetricsZeroAlloc asserts the same
// property so a regression fails `go test`, not just a benchmark reader.
func BenchmarkSimStepObsDisabled(b *testing.B) {
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

// BenchmarkSimStepObsEnabled measures the same loop with the standard
// metrics hooks attached, quantifying the cost of enabling observability
// (still zero allocations; the handles pre-exist).
func BenchmarkSimStepObsEnabled(b *testing.B) {
	reg := obs.New()
	var e Engine
	fill(&e, b.N)
	e.SetHooks(NewMetricHooks(reg))
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

// TestStepDisabledMetricsZeroAlloc asserts that the disabled-metrics fast
// path allocates nothing per event, so observability can never silently
// tax the hot loop.
func TestStepDisabledMetricsZeroAlloc(t *testing.T) {
	var e Engine
	fill(&e, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if !e.Step() {
			t.Fatal("queue drained early")
		}
	})
	if allocs != 0 {
		t.Errorf("Step with metrics disabled allocates %.1f bytes-worth of objects per op, want 0", allocs)
	}
}

// TestStepEnabledMetricsZeroAlloc asserts the enabled path is also
// allocation-free: counter/gauge handles are pre-registered and updated
// in place.
func TestStepEnabledMetricsZeroAlloc(t *testing.T) {
	reg := obs.New()
	var e Engine
	e.SetHooks(NewMetricHooks(reg))
	fill(&e, 256)
	allocs := testing.AllocsPerRun(200, func() {
		if !e.Step() {
			t.Fatal("queue drained early")
		}
	})
	if allocs != 0 {
		t.Errorf("Step with metrics enabled allocates %.1f objects per op, want 0", allocs)
	}
}
