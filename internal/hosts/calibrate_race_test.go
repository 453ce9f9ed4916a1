package hosts

import (
	"sync"
	"testing"
)

// TestCalibratedPairConcurrent hammers the calibration cache from many
// goroutines across several pairs; it is the regression test for the
// cache's locking discipline and is expected to run under
// `go test -race ./internal/hosts`. Every caller must observe exactly
// the same calibrated pair, and the probe runs must happen once per
// pair, not once per caller. The options are not the defaults, so the
// committed fit table never answers and every call reaches the memo.
func TestCalibratedPairConcurrent(t *testing.T) {
	ResetCalibrationCache()
	t.Cleanup(ResetCalibrationCache)

	names := []string{"babel-tove", "manic-sutton", "void-sutton"}
	opts := nonDefaultOptions(t)

	pairs := make([]Pair, len(names))
	for i, n := range names {
		p, ok := PairByName(n)
		if !ok {
			t.Fatalf("unknown pair %q", n)
		}
		pairs[i] = p
	}

	const workers = 8
	results := make([][]Pair, len(names))
	for i := range results {
		results[i] = make([]Pair, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker visits the pairs in a different order to
			// shake out lock-ordering assumptions.
			for k := 0; k < len(pairs); k++ {
				i := (k + w) % len(pairs)
				results[i][w] = CalibratedPair(pairs[i], opts)
			}
		}(w)
	}
	wg.Wait()

	for i, name := range names {
		first := results[i][0]
		if want := pairs[i].Calibrate(opts); first != want {
			t.Errorf("%s: concurrent calibration fit %v, want Calibrate's %v", name, fitOf(first), fitOf(want))
		}
		for w := 1; w < workers; w++ {
			if results[i][w] != first {
				t.Errorf("%s: worker %d observed a different calibration", name, w)
			}
		}
		// A later sequential call must hit the cache and agree too.
		if again := CalibratedPair(pairs[i], opts); again != first {
			t.Errorf("%s: post-race lookup disagrees with concurrent result", name)
		}
	}
}

// TestResetCalibrationCache verifies the reset actually forgets entries
// (a fresh calibration runs afterwards) without disturbing determinism.
// Like the test above, it uses non-default options to stay off the
// committed fit table.
func TestResetCalibrationCache(t *testing.T) {
	ResetCalibrationCache()
	t.Cleanup(ResetCalibrationCache)

	pair, ok := PairByName("babel-tove")
	if !ok {
		t.Fatal("unknown pair babel-tove")
	}
	opts := nonDefaultOptions(t)
	a := CalibratedPair(pair, opts)
	ResetCalibrationCache()
	b := CalibratedPair(pair, opts)
	if a != b {
		t.Error("calibration is deterministic; reset must not change the result")
	}
	if want := pair.Calibrate(opts); b != want {
		t.Errorf("fit after reset %v, want Calibrate's %v", fitOf(b), fitOf(want))
	}
}

// nonDefaultOptions returns short fitting options and checks that they
// do not normalize to the defaults, under which CalibratedPair would
// answer known pairs from the committed table instead of computing.
func nonDefaultOptions(t *testing.T) CalibrateOptions {
	t.Helper()
	o := CalibrateOptions{Iterations: 1, ProbeDuration: 60}
	if o.normalize() == (CalibrateOptions{}).normalize() {
		t.Fatalf("options %+v are the defaults", o)
	}
	return o
}
