package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkPredictBatch pins the cost of the raw batch compute path — 64
// normalized points through every closed-form model, no HTTP, no cache.
func BenchmarkPredictBatch(b *testing.B) {
	reqs := make([]PredictRequest, 64)
	for i := range reqs {
		reqs[i] = PredictRequest{
			P: 0.001 * float64(i+1), RTT: 0.2, T0: 2.0, Wm: 12,
		}.normalize()
		if err := reqs[i].validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			if _, err := predict(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServePredict measures the full in-process serving hot path —
// routing, JSON decode, normalization, cache lookup, response write —
// for a single-point predict request. After the first
// iteration every request is a cache hit, so this is the steady-state
// cost a saturating client sees.
func BenchmarkServePredict(b *testing.B) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer s.Close()
	body := `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServePredictParallel is the contention view of the hot path:
// GOMAXPROCS goroutines hammering the same cache-hit request, the shape
// that exposed the single cache mutex the sharded LRU replaced.
func BenchmarkServePredictParallel(b *testing.B) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer s.Close()
	body := `{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}`
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
	})
}

// BenchmarkServePredictMiss is BenchmarkServePredict with a distinct
// point per iteration: every request takes the compute-and-fill path.
func BenchmarkServePredictMiss(b *testing.B) {
	s := New(Config{Workers: 2, QueueDepth: 64, CacheEntries: 1})
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"p":%g,"rtt":0.2,"t0":2.0,"wm":12}`, 1e-6+float64(i%1000000)*1e-7)
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
