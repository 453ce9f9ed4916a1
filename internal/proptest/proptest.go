// Package proptest runs the module's testing/quick property checks from
// a fixed seed, so a property that fails once fails again on the next
// run with the same inputs, and the failure names the seed it drew
// them from. Test files call Check rather than quick.Check;
// TestEveryQuickCheckIsSeeded fails on any quick.Check or
// quick.CheckEqual in a _test.go file whose config sets no Rand.
package proptest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Seed is the seed every property check draws its inputs from.
const Seed = 1

// Config returns a quick.Config that tries at most maxCount inputs
// (quick's default when maxCount is 0), drawn from a fresh generator
// seeded with Seed.
func Config(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(Seed))}
}

// Check runs quick.Check(f, Config(maxCount)) and reports a
// counterexample as a test error carrying the seed.
func Check(t testing.TB, f any, maxCount int) {
	t.Helper()
	if err := quick.Check(f, Config(maxCount)); err != nil {
		t.Errorf("property check (seed %d): %v", Seed, err)
	}
}
