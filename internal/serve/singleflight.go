package serve

import "sync"

// simFlights coalesces identical in-flight simulation jobs. Simulations
// are asynchronous (clients poll their own job ID), so instead of parking
// waiters on a channel the table records which jobs are waiting for a
// key; the leader finishes them all from its one result.
type simFlights struct {
	mu sync.Mutex
	//pftk:guardedby mu
	waiting map[cacheKey][]uint64
}

func newSimFlights() *simFlights {
	return &simFlights{waiting: map[cacheKey][]uint64{}}
}

// join registers interest in key. The first caller becomes the leader
// (its own job is not recorded — the leader finishes its job directly)
// and must eventually call take; later callers' jobs accumulate until
// the leader takes them.
func (t *simFlights) join(key cacheKey, job uint64) (leader bool) {
	t.mu.Lock()
	jobs, ok := t.waiting[key]
	if ok {
		t.waiting[key] = append(jobs, job)
	} else {
		t.waiting[key] = nil
		leader = true
	}
	t.mu.Unlock()
	return leader
}

// take removes the key's flight and returns the waiting jobs, which the
// leader must drive to a terminal state. A successful result must be
// cached before take, so late arrivals hit the cache instead of finding
// neither flight nor result.
func (t *simFlights) take(key cacheKey) []uint64 {
	t.mu.Lock()
	jobs := t.waiting[key]
	delete(t.waiting, key)
	t.mu.Unlock()
	return jobs
}
