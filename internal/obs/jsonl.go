package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// RunRecord is one line of the metrics JSONL export: the identity,
// timing, and full metric snapshot of one simulated run. The schema is
// documented in DESIGN.md ("Observability") and validated by
// ValidateMetricsJSONL, which `experiments -checkobs` runs against real
// output.
type RunRecord struct {
	// Experiment labels the producing campaign or artifact ("hour",
	// "short", "fig7", ...).
	Experiment string `json:"experiment"`
	// Pair is the host pair name ("manic-alps"); free-form for
	// non-campaign runs.
	Pair string `json:"pair"`
	// Trace is the trace index within the campaign (0 for single-trace
	// campaigns).
	Trace int `json:"trace"`
	// SimSeconds is the simulated duration of the run.
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is the wall-clock cost of producing it.
	WallSeconds float64 `json:"wall_seconds"`
	// Metrics is the run's registry snapshot.
	Metrics Snapshot `json:"metrics"`
}

// JSONLWriter serializes RunRecords one JSON object per line. It is safe
// for concurrent use; a nil *JSONLWriter discards records, so producers
// hold one unconditionally.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	n   int
	err error
}

// NewJSONLWriter wraps w. Call Flush when done.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Write appends one record. Errors are sticky: after the first failure
// every later Write (and Flush) returns it.
func (jw *JSONLWriter) Write(rec RunRecord) error {
	if jw == nil {
		return nil
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return jw.err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = jw.w.Write(append(data, '\n'))
	}
	if err != nil {
		jw.err = err
		return err
	}
	jw.n++
	return nil
}

// Records returns the number of records successfully written.
func (jw *JSONLWriter) Records() int {
	if jw == nil {
		return 0
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.n
}

// Flush drains the buffer and returns the sticky error, if any.
func (jw *JSONLWriter) Flush() error {
	if jw == nil {
		return nil
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return jw.err
	}
	jw.err = jw.w.Flush()
	return jw.err
}

// ValidateMetricsJSONL checks that r is a well-formed metrics export:
// every line parses as a RunRecord with a non-empty experiment label, a
// positive simulated duration and a non-empty snapshot. It returns the
// number of records validated; zero records is an error (a campaign that
// exports metrics must produce at least one run).
func ValidateMetricsJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	n := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		if rec.Experiment == "" {
			return n, fmt.Errorf("metrics line %d: missing experiment label", n+1)
		}
		if !(rec.SimSeconds > 0) {
			return n, fmt.Errorf("metrics line %d: sim_seconds = %g, want > 0", n+1, rec.SimSeconds)
		}
		if rec.Metrics.Empty() {
			return n, fmt.Errorf("metrics line %d: empty metric snapshot", n+1)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("obs: metrics export holds no records")
	}
	return n, nil
}
