package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: pftk
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatedSecond 	  100000	     30000 ns/op	        36.92 pkts/simsec	   20326 B/op	     236 allocs/op
BenchmarkSimulatedSecond 	  100000	     10000 ns/op	        36.92 pkts/simsec	   20326 B/op	     236 allocs/op
BenchmarkSimulatedSecond 	  100000	     20000 ns/op	        36.92 pkts/simsec	   20326 B/op	     236 allocs/op
BenchmarkTimerReset-8    	 5000000	       120 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	pftk	24.041s
ok  	pftk/internal/obs	0.004s [no tests to run]
`

func TestParseAndReduce(t *testing.T) {
	raw, env, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if env.goos != "linux" || env.goarch != "amd64" || !strings.Contains(env.cpu, "Xeon") {
		t.Errorf("env = %+v", env)
	}
	results := reduce(raw)
	sec, ok := results["BenchmarkSimulatedSecond"]
	if !ok {
		t.Fatalf("BenchmarkSimulatedSecond missing: %v", results)
	}
	if sec.Runs != 3 {
		t.Errorf("runs = %d, want 3", sec.Runs)
	}
	if sec.NsPerOp != 20000 { // median of 30000, 10000, 20000
		t.Errorf("ns/op median = %g, want 20000", sec.NsPerOp)
	}
	if sec.BytesPerOp != 20326 || sec.AllocsPerOp != 236 {
		t.Errorf("B/op = %g allocs/op = %g", sec.BytesPerOp, sec.AllocsPerOp)
	}
	if sec.Extra["pkts/simsec"] != 36.92 {
		t.Errorf("extra = %v", sec.Extra)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	tr, ok := results["BenchmarkTimerReset"]
	if !ok {
		t.Fatalf("BenchmarkTimerReset missing: %v", results)
	}
	if tr.NsPerOp != 120 || tr.AllocsPerOp != 0 {
		t.Errorf("timer reset = %+v", tr)
	}
}

// TestReduceRecordsNsPerOpRange: beside the median, each benchmark
// keeps the fastest and slowest ns/op of its runs, and the range
// survives the JSON round trip into the baseline file.
func TestReduceRecordsNsPerOpRange(t *testing.T) {
	raw, _, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	sec := reduce(raw)["BenchmarkSimulatedSecond"]
	if sec.NsPerOpMin != 10000 || sec.NsPerOp != 20000 || sec.NsPerOpMax != 30000 {
		t.Errorf("ns/op min/median/max = %g/%g/%g, want 10000/20000/30000", sec.NsPerOpMin, sec.NsPerOp, sec.NsPerOpMax)
	}
	if tr := reduce(raw)["BenchmarkTimerReset"]; tr.NsPerOpMin != 120 || tr.NsPerOpMax != 120 {
		t.Errorf("single run: ns/op range %g..%g, want 120..120", tr.NsPerOpMin, tr.NsPerOpMax)
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	var out strings.Builder
	if err := run([]string{"-o", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	got := f.Baselines["current"].Benchmarks["BenchmarkSimulatedSecond"]
	if got.NsPerOpMin != 10000 || got.NsPerOpMax != 30000 {
		t.Errorf("file records ns/op range %g..%g, want 10000..30000", got.NsPerOpMin, got.NsPerOpMax)
	}
}

func TestMedianEvenCountIsObservedValue(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Errorf("median = %g, want lower-middle 2", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %g, want 0", m)
	}
}

func TestRunMergesLabelsIntoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	var out strings.Builder
	if err := run([]string{"-o", path, "-label", "pre", "-note", "seed"},
		strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-o", path, "-label", "post"},
		strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(f.Baselines) != 2 {
		t.Fatalf("baselines = %v", f.Baselines)
	}
	if f.Baselines["pre"].Note != "seed" {
		t.Errorf("pre note = %q", f.Baselines["pre"].Note)
	}
	if f.GOOS != "linux" {
		t.Errorf("goos = %q", f.GOOS)
	}
	if f.Baselines["post"].Benchmarks["BenchmarkSimulatedSecond"].NsPerOp != 20000 {
		t.Error("post baseline lost the benchmark medians")
	}
}

func TestRunRelabelReplacesBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	var out strings.Builder
	for i := 0; i < 2; i++ {
		if err := run([]string{"-o", path, "-label", "current"},
			strings.NewReader(sampleBench), &out); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Baselines) != 1 {
		t.Errorf("re-recording a label duplicated baselines: %v", f.Baselines)
	}
}

// multiFlowBench is a second run set with one benchmark overlapping
// sampleBench (different numbers) and one new to it — the shape of the
// Makefile's separate fixed-benchtime MultiFlow invocation.
const multiFlowBench = `goos: linux
goarch: amd64
pkg: pftk
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatedSecond 	  100000	     15000 ns/op	        36.92 pkts/simsec	   20326 B/op	     236 allocs/op
BenchmarkMultiFlow10     	   10000	    110000 ns/op	       200.0 pkts/simsec	   43146 B/op	       0 allocs/op
PASS
ok  	pftk	2.041s
`

func TestRunMergesBenchmarksWithinLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	var out strings.Builder
	if err := run([]string{"-o", path, "-label", "current"},
		strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-o", path, "-label", "current"},
		strings.NewReader(multiFlowBench), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	b := f.Baselines["current"]
	if b == nil {
		t.Fatalf("current label missing: %v", f.Baselines)
	}
	// The earlier run's exclusive benchmark survives the second merge...
	if tr := b.Benchmarks["BenchmarkTimerReset"]; tr == nil || tr.NsPerOp != 120 {
		t.Errorf("merge dropped BenchmarkTimerReset: %+v", tr)
	}
	// ...the second run's new benchmark is recorded...
	if mf := b.Benchmarks["BenchmarkMultiFlow10"]; mf == nil || mf.NsPerOp != 110000 {
		t.Errorf("merge missed BenchmarkMultiFlow10: %+v", mf)
	}
	// ...and on a name collision the incoming run wins.
	if sec := b.Benchmarks["BenchmarkSimulatedSecond"]; sec == nil || sec.NsPerOp != 15000 {
		t.Errorf("collision not won by incoming run: %+v", sec)
	}
}

func TestEmptyInputIsAnError(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("PASS\nok pftk 0.1s\n"), &out); err == nil {
		t.Error("expected an error for input with no benchmark lines")
	}
}

func TestCorruptBaselineFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-o", path}, strings.NewReader(sampleBench), &out); err == nil {
		t.Error("expected an error merging into a corrupt baseline file")
	}
}
