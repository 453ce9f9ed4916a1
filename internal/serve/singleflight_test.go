package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pftk/internal/obs"
)

// TestSimulateCoalescingSharesOneRun submits K identical simulations
// concurrently: every request gets its own job ID and every job reaches
// done, but only one simulation executes — the rest ride the leader's
// run (serve.jobs.coalesced) or hit the result cache.
func TestSimulateCoalescingSharesOneRun(t *testing.T) {
	const k = 8
	reg := obs.New()
	s := New(Config{Workers: 1, QueueDepth: 16, Registry: reg})
	defer s.Close()

	const body = `{"rtt":0.1,"loss_rate":0.02,"duration":2.0,"seed":7}`
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		ids   []string
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			mu.Lock()
			defer mu.Unlock()
			if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
				t.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
			var job struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
				t.Errorf("decode job: %v", err)
				return
			}
			ids = append(ids, job.ID)
		}()
	}
	close(start)
	wg.Wait()

	// Drain: every job must reach a terminal, successful state.
	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			var job struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
				t.Fatalf("decode job %s: %v", id, err)
			}
			if job.Status == "done" {
				break
			}
			if job.Status == "failed" {
				t.Fatalf("job %s failed", id)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", id, job.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	snap := reg.Snapshot()
	coalesced := snap.Counter("serve.jobs.coalesced")
	hits := snap.Counter("serve.cache.hits")
	if coalesced+hits != k-1 {
		t.Errorf("coalesced (%d) + cache hits (%d) = %d, want %d riders", coalesced, hits, coalesced+hits, k-1)
	}
	// Cache hits complete without ever entering the queue, so only the
	// leader and its coalesced waiters count as completed jobs.
	if done := snap.Counter("serve.jobs.completed"); done != 1+coalesced {
		t.Errorf("serve.jobs.completed = %d, want %d (leader + coalesced)", done, 1+coalesced)
	}
}
