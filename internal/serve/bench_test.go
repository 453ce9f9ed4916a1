package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
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
// GOMAXPROCS goroutines hammering the same cache-hit request. This is
// the shape that exposed the serialized access log and the single cache
// mutex; the sharded LRU and the group-commit log sink are sized against
// it.
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

// slowWriter models a disk-backed log: each Write carries a fixed
// latency, whatever its size. Group commit amortizes that latency across
// every line accumulated while the previous Write was in flight.
type slowWriter struct {
	mu     sync.Mutex
	writes int
	bytes  int
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(20 * time.Microsecond)
	w.mu.Lock()
	w.writes++
	w.bytes += len(p)
	w.mu.Unlock()
	return len(p), nil
}

// BenchmarkAccessLogContention measures concurrent request logging.
//
// Contention regression note: before the group-commit logSink, every
// handler formatted AND wrote its line while holding one logMu, so a
// slow Write serialized the entire request path — at 20µs per write this
// benchmark degraded to ~50k lines/s total no matter the parallelism.
// The sink formats lock-free, appends under a short buffer mutex and
// flushes outside it, so concurrent handlers batch into few large
// writes. If this benchmark's ns/op ever approaches the sleep cost of
// one Write per line, the group commit has regressed to line-at-a-time.
func BenchmarkAccessLogContention(b *testing.B) {
	line := []byte(`method=POST path=/v1/predict status=200 dur=0.000123 bytes=512` + "\n")
	hammer := func(b *testing.B, sink *logSink) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				sink.append(line)
			}
		})
	}
	b.Run("slow-writer", func(b *testing.B) {
		sw := &slowWriter{}
		hammer(b, newLogSink(sw))
		b.StopTimer()
		sw.mu.Lock()
		if sw.writes > 0 {
			b.ReportMetric(float64(b.N)/float64(sw.writes), "lines/write")
		}
		sw.mu.Unlock()
	})
	b.Run("discard", func(b *testing.B) {
		hammer(b, newLogSink(io.Discard))
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
