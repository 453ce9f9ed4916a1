package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// JobStatus is the lifecycle state of an asynchronous simulation job.
type JobStatus string

// The job lifecycle: queued -> running -> done | failed. Cached
// resubmissions are born done.
const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// Job is the client-visible record of one simulation submission.
type Job struct {
	// ID names the job for /v1/jobs/{id}.
	ID string `json:"id"`
	// Status is the current lifecycle state.
	Status JobStatus `json:"status"`
	// Cached reports that the result was served from the LRU cache
	// without re-running the simulation.
	Cached bool `json:"cached,omitempty"`
	// RequestID echoes the X-Request-Id of the submitting request, so a
	// polled job result is traceable back to the submission's spans and
	// access-log line.
	RequestID string `json:"request_id,omitempty"`
	// Request echoes the normalized request being simulated.
	Request SimulateRequest `json:"request"`
	// Result is present once Status is done.
	Result *SimulateResult `json:"result,omitempty"`
	// Error is present once Status is failed.
	Error string `json:"error,omitempty"`
}

// jobID formats a job's sequence number as its client-visible ID.
func jobID(seq uint64) string { return fmt.Sprintf("job-%08d", seq) }

// parseJobID inverts jobID. Only the canonical spelling names a job:
// "job-1" is not "job-00000001".
func parseJobID(id string) (uint64, bool) {
	seq, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	return seq, err == nil && jobID(seq) == id
}

// jobRecord is a job as the store holds it: keyed by sequence number,
// with the result inline, so a retained finished job is one allocation
// and its ID is formatted only when a client reads it.
type jobRecord struct {
	status    JobStatus
	cached    bool
	requestID string
	req       SimulateRequest
	res       SimulateResult
	err       string
}

// jobStore tracks jobs by sequence number. Finished jobs are retained up
// to a cap and then evicted oldest-first, so an arbitrarily long-lived
// daemon holds a bounded job table; queued and running jobs are never
// evicted.
type jobStore struct {
	mu  sync.Mutex
	max int // immutable after construction
	//pftk:guardedby mu
	seq uint64
	//pftk:guardedby mu
	jobs map[uint64]*jobRecord
	//pftk:guardedby mu
	finished []uint64 // eviction order, oldest first
}

// newJobStore returns a store retaining up to max finished jobs (floored
// at 1).
func newJobStore(max int) *jobStore {
	if max < 1 {
		max = 1
	}
	return &jobStore{max: max, jobs: make(map[uint64]*jobRecord)}
}

// create registers a new queued job for req, tagged with the
// submitting request's ID, and returns its sequence number.
func (s *jobStore) create(req SimulateRequest, requestID string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.jobs[s.seq] = &jobRecord{status: JobQueued, req: req, requestID: requestID}
	return s.seq
}

// get returns a snapshot of the job named by a client-visible ID, if it
// exists.
func (s *jobStore) get(id string) (Job, bool) {
	seq, ok := parseJobID(id)
	if !ok {
		return Job{}, false
	}
	return s.snapshot(seq)
}

// snapshot returns the client-visible view of job seq, if it exists.
func (s *jobStore) snapshot(seq uint64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[seq]
	if !ok {
		return Job{}, false
	}
	job := Job{ID: jobID(seq), Status: j.status, Cached: j.cached, RequestID: j.requestID, Request: j.req, Error: j.err}
	if j.status == JobDone {
		res := j.res
		job.Result = &res
	}
	return job, true
}

// setRunning transitions a queued job to running.
func (s *jobStore) setRunning(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[seq]; ok {
		j.status = JobRunning
	}
}

// finish completes the job with a result, marking it cached when it was
// served from the LRU.
func (s *jobStore) finish(seq uint64, res SimulateResult, cached bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[seq]
	if !ok {
		return
	}
	j.status = JobDone
	j.res = res
	j.cached = cached
	s.noteFinishedLocked(seq)
}

// fail completes the job with an error.
func (s *jobStore) fail(seq uint64, msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[seq]
	if !ok {
		return
	}
	j.status = JobFailed
	j.err = msg
	s.noteFinishedLocked(seq)
}

// noteFinishedLocked records a terminal transition and evicts the oldest
// finished jobs beyond the retention cap. Callers hold s.mu.
//
//pftk:locked(mu)
func (s *jobStore) noteFinishedLocked(seq uint64) {
	s.finished = append(s.finished, seq)
	for len(s.finished) > s.max {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}
