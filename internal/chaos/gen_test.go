package chaos

import (
	"testing"

	"pftk/internal/scenario"
)

// TestGenerateDeterministicAndOrderFree pins the generator's replay
// contract: case i is a pure function of (spec, seed, i), identical
// whether generated alone, repeatedly, or interleaved with other
// indices — which is what lets a single corpus case be regenerated
// without replaying the whole campaign.
func TestGenerateDeterministicAndOrderFree(t *testing.T) {
	sp := DefaultSpec()
	inOrder := make([]Case, 20)
	for i := range inOrder {
		c, err := Generate(&sp, 42, i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		inOrder[i] = c
	}
	// Reverse order, fresh calls: same cases.
	for i := len(inOrder) - 1; i >= 0; i-- {
		again, err := Generate(&sp, 42, i)
		if err != nil {
			t.Fatal(err)
		}
		if again.Hash() != inOrder[i].Hash() {
			t.Fatalf("case %d differs when generated out of order", i)
		}
	}
	// A different seed moves every case.
	other, err := Generate(&sp, 43, 0)
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == inOrder[0].Hash() {
		t.Error("seed 42 and 43 generated the same case 0")
	}
}

// TestGenerateAlwaysValid pins the generator's validity contract over a
// larger sample than any single campaign, including that every
// generated scenario declares the case duration (so the codec's
// past-the-end validation is armed on every case).
func TestGenerateAlwaysValid(t *testing.T) {
	sp := DefaultSpec()
	for i := 0; i < 500; i++ {
		c, err := Generate(&sp, 7, i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.Scenario != nil && c.Scenario.Duration != c.Duration {
			t.Fatalf("case %d: scenario declares duration %v, case has %v",
				i, c.Scenario.Duration, c.Duration)
		}
	}
}

// TestGenerateCoversTheSpec pins that a modest campaign actually
// exercises the distribution: every loss family, every fault kind,
// phases, periodic trains and rate-limited bottleneck phases all
// appear. A generator that silently stopped sampling a dimension would
// quietly hollow out every campaign built on it.
func TestGenerateCoversTheSpec(t *testing.T) {
	sp := DefaultSpec()
	kinds := map[string]int{}
	var ge, timedburst, bernoulli, phased, periodic, rated int
	for i := 0; i < 400; i++ {
		c, err := Generate(&sp, 99, i)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case c.BurstDur > 0:
			timedburst++
		case c.LossRate > 0:
			bernoulli++
		}
		if c.Scenario == nil {
			continue
		}
		for _, ph := range c.Scenario.Phases {
			if ph.At == 0 && ph.Loss != nil && ph.Loss.Model == scenario.LossGE {
				ge++
			} else {
				phased++
			}
			if ph.Rate != nil {
				rated++
			}
		}
		for _, f := range c.Scenario.Faults {
			kinds[f.Kind]++
			if f.Period > 0 {
				if f.Count < 2 {
					t.Fatalf("case %d: periodic fault with count %d", i, f.Count)
				}
				periodic++
			}
		}
	}
	if ge == 0 || timedburst == 0 || bernoulli == 0 {
		t.Errorf("loss families not all covered: ge=%d timedburst=%d bernoulli=%d", ge, timedburst, bernoulli)
	}
	if phased == 0 || rated == 0 || periodic == 0 {
		t.Errorf("scenario shapes not all covered: phases=%d rate-limited=%d periodic=%d", phased, rated, periodic)
	}
	for _, k := range sp.FaultKinds {
		if kinds[k] == 0 {
			t.Errorf("fault kind %q never generated (seen: %v)", k, kinds)
		}
	}
}
