package chaoshttp

import (
	"net/http/httptest"
	"testing"

	"pftk/internal/chaos"
	"pftk/internal/serve"
)

// TestFeedAgainstInProcessDaemon runs a small HTTP campaign against an
// in-process server: every generated case must complete, match the
// local oracle byte for byte, and replay from the daemon's cache.
func TestFeedAgainstInProcessDaemon(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sp := chaos.DefaultSpec()
	sp.Duration = chaos.Range{Min: 2, Max: 5}
	sp.FaultDur = chaos.Range{Min: 0.1, Max: 0.8}
	rep, err := Feed(FeedConfig{URL: ts.URL, Spec: &sp, Seed: 3, Cases: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("[%s] %s", v.Invariant, v.Detail)
	}
	if rep.Submitted != 12 || rep.Completed != 12 || rep.CacheHits != 12 {
		t.Errorf("submitted=%d completed=%d cacheHits=%d, want 12 across the board",
			rep.Submitted, rep.Completed, rep.CacheHits)
	}
}

// TestRequestMapping pins the case-to-wire mapping field for field; a
// silently dropped field would make the HTTP campaign test a different
// simulation than the local one.
func TestRequestMapping(t *testing.T) {
	sp := chaos.DefaultSpec()
	c, err := chaos.Generate(&sp, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := Request(c)
	if req.RTT != c.RTT || req.LossRate != c.LossRate || req.BurstDur != c.BurstDur ||
		req.Duration != c.Duration || req.MinRTO != c.MinRTO {
		t.Errorf("float fields dropped in mapping: %+v vs %+v", req, c)
	}
	if req.Wm != c.Wm || req.Seed != c.Seed || req.Variant != c.Variant ||
		req.AckEvery != c.AckEvery || req.Scenario != c.Scenario {
		t.Errorf("fields dropped in mapping: %+v vs %+v", req, c)
	}
}
