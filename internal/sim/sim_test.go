package sim

import (
	"math"
	"sort"
	"testing"

	"pftk/internal/proptest"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	var e Engine
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, func() { order = append(order, at) })
	}
	if n := e.Run(); n != 5 {
		t.Fatalf("fired %d events, want 5", n)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %g, want 5", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var e Engine
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %g, want 5", e.Now())
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Error("Cancel of a pending event should report true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Scheduled(ev) {
		t.Error("Scheduled must report false after Cancel")
	}
	// double cancel and zero-handle cancel are no-ops
	if e.Cancel(ev) {
		t.Error("double Cancel should report false")
	}
	if e.Cancel(Event{}) {
		t.Error("Cancel of the zero Event should report false")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	var e Engine
	ev := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(ev) { // must not panic or disturb the queue
		t.Error("Cancel after fire should report false")
	}
	if e.Pending() != 0 {
		t.Error("queue should be empty")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var e Engine
	var order []int
	evs := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(float64(i), func() { order = append(order, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	e.Schedule(1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling at NaN")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestScheduleNilFnPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil callback")
		}
	}()
	e.Schedule(1, nil)
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(3)
	if n != 3 {
		t.Errorf("fired %d, want 3", n)
	}
	if e.Now() != 3 {
		t.Errorf("clock = %g, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	// Draining before the deadline advances the clock to the deadline.
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("clock = %g, want 100", e.Now())
	}
}

// TestStepUntil: the bounded step fires only events due at or before
// its deadline and never moves the clock past it.
func TestStepUntil(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if !e.StepUntil(1) || e.Now() != 1 {
		t.Fatalf("event at the deadline did not fire (clock %g)", e.Now())
	}
	if e.StepUntil(1.5) || e.Now() != 1 || e.Pending() != 1 {
		t.Fatalf("event past the deadline fired (clock %g, pending %d)", e.Now(), e.Pending())
	}
	if !e.StepUntil(2) || e.StepUntil(100) {
		t.Fatal("StepUntil disagrees with the queue")
	}
}

func TestStop(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	// Run again resumes.
	e.Run()
	if count != 10 {
		t.Errorf("after resume count = %d, want 10", count)
	}
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Errorf("Fired = %d, want 7", e.Fired())
	}
}

func TestQuickEngineOrdersArbitrarySchedules(t *testing.T) {
	f := func(raw []uint16) bool {
		var e Engine
		var order []float64
		for _, r := range raw {
			at := float64(r) / 100
			e.Schedule(at, func() { order = append(order, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(order) && len(order) == len(raw)
	}
	proptest.Check(t, f, 100)
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds should produce different streams")
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean = %g, want ~0.5", m)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(5)
	a := r.Fork("loss")
	b := r.Fork("delay")
	diff := 0
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			diff++
		}
	}
	if diff < 45 {
		t.Error("forked streams should be independent")
	}
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(9)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %g", frac)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.5)
	}
	if m := sum / n; math.Abs(m-2.5) > 0.05 {
		t.Errorf("Exp mean = %g, want ~2.5", m)
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(17)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		sum := 0.0
		const n = 100000
		for i := 0; i < n; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric returned %d < 1", g)
			}
			sum += float64(g)
		}
		if m := sum / n; math.Abs(m-1/p) > 0.05/p {
			t.Errorf("Geometric(%g) mean = %g, want ~%g", p, m, 1/p)
		}
	}
	if g := r.Geometric(1); g != 1 {
		t.Errorf("Geometric(1) = %d, want 1", g)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(23)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.Normal(3, 2)
		sum += x
		sq += x * x
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("Normal mean = %g, want ~3", mean)
	}
	if math.Abs(std-2) > 0.03 {
		t.Errorf("Normal std = %g, want ~2", std)
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 10000; i++ {
		u := r.Uniform(2, 5)
		if u < 2 || u >= 5 {
			t.Fatalf("Uniform out of range: %g", u)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(31)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(4)
		if v < 0 || v >= 4 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("Intn(4) did not cover all values: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}
