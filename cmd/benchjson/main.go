// Command benchjson turns `go test -bench -benchmem` output into a
// tracked JSON benchmark baseline. It reads the benchmark text on stdin,
// takes the per-metric median across repeated runs (-count), and either
// prints the result or merges it under a named label into a baseline file
// such as BENCH_sim.json — so before/after performance numbers live in
// the repository next to the code they measure.
//
// Example:
//
//	go test -run '^$' -bench 'BenchmarkSimulatedSecond$' -benchmem \
//	    -benchtime 100000x -count 5 . | benchjson -label post -o BENCH_sim.json
//
// With -check, benchjson validates the stream instead of recording it:
// it exits non-zero unless every benchmark named in -require was parsed,
// which CI uses as a cheap smoke test that the benchmark suite still
// runs and still reports allocations.
//
// With -check -baseline, benchjson also gates allocations: every parsed
// benchmark that the baseline file records at 0 allocs/op under -label
// must still report 0. Run the stream at the ledger's own fixed
// -benchtime, since amortized growth rounds to zero only there:
//
//	go test -run '^$' -bench 'BenchmarkSimulatedSecond$' -benchmem \
//	    -benchtime 100000x . | benchjson -check -baseline BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is the median of one benchmark's metrics across its runs.
type Result struct {
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom ReportMetric units (e.g. pkts/simsec).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Baseline is one labeled benchmark snapshot.
type Baseline struct {
	Date       string             `json:"date,omitempty"`
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]*Result `json:"benchmarks,omitempty"`
}

// checkZeroAllocs is the allocation gate against a committed
// BENCH_sim.json: every live result whose entry under label records
// 0 allocs/op must still report 0. Rungs absent from the live stream are
// skipped, since the ledger records them at different fixed iteration
// counts and one gate run covers one count; a stream that reaches no
// 0-alloc rung at all is an error, not a vacuous pass. It returns the
// names it checked.
func checkZeroAllocs(path, label string, live map[string]*Result) ([]string, error) {
	f, err := readFile(path)
	if err != nil {
		return nil, err
	}
	b := f.Baselines[label]
	if b == nil {
		return nil, fmt.Errorf("%s: no baseline labeled %q", path, label)
	}
	var checked, failed []string
	for name, r := range live {
		base, ok := b.Benchmarks[name]
		if !ok || base.AllocsPerOp > 0 {
			continue
		}
		checked = append(checked, name)
		if r.AllocsPerOp > 0 {
			failed = append(failed, fmt.Sprintf("%s (%g allocs/op)", name, r.AllocsPerOp))
		}
	}
	sort.Strings(checked)
	sort.Strings(failed)
	if len(failed) > 0 {
		return nil, fmt.Errorf("%s: rungs recorded at 0 allocs/op under %q now allocate: %s",
			path, label, strings.Join(failed, ", "))
	}
	if len(checked) == 0 {
		return nil, fmt.Errorf("%s: no benchmark in the stream is recorded at 0 allocs/op under %q; the gate checked nothing",
			path, label)
	}
	return checked, nil
}

// readFile loads a committed baseline file for the -check gates.
func readFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: not valid baseline JSON: %w", path, err)
	}
	return &f, nil
}

// File is the on-disk shape of BENCH_sim.json.
type File struct {
	GOOS      string               `json:"goos,omitempty"`
	GOARCH    string               `json:"goarch,omitempty"`
	CPU       string               `json:"cpu,omitempty"`
	Baselines map[string]*Baseline `json:"baselines"`
}

// env captures the goos/goarch/cpu header lines of a benchmark run.
type env struct {
	goos, goarch, cpu string
}

// samples accumulates every observed value per benchmark per unit.
type samples map[string]map[string][]float64

// parse consumes `go test -bench` output, returning the raw per-unit
// samples keyed by benchmark name (GOMAXPROCS suffix stripped) and the
// run environment.
func parse(r io.Reader) (samples, env, error) {
	out := samples{}
	var e env
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			e.goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			e.goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			e.cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest are (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, e, fmt.Errorf("line %q: bad value %q: %w", line, fields[i], err)
			}
			unit := fields[i+1]
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			out[name][unit] = append(out[name][unit], v)
		}
	}
	return out, e, sc.Err()
}

// median returns the middle of the sorted values (lower middle for even
// counts, so the result is always an observed measurement).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// reduce folds raw samples into per-benchmark median Results.
func reduce(raw samples) map[string]*Result {
	out := map[string]*Result{}
	for name, units := range raw {
		r := &Result{}
		for unit, vs := range units {
			m := median(vs)
			switch unit {
			case "ns/op":
				r.NsPerOp = m
				r.Runs = len(vs)
			case "B/op":
				r.BytesPerOp = m
			case "allocs/op":
				r.AllocsPerOp = m
			default:
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[unit] = m
			}
		}
		out[name] = r
	}
	return out
}

// mergeFile folds a labeled baseline into the JSON file at path,
// creating it if absent. Within an existing label, incoming benchmark
// entries replace same-named ones and all others are kept — so suites
// that need different fixed iteration counts (the single-flow path at
// 100000x, the multi-flow systems at 10000x/1000x) can be recorded by
// consecutive invocations under one label; the incoming run's date and
// note win.
func mergeFile(path, label string, b *Baseline, e env) error {
	f := &File{Baselines: map[string]*Baseline{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, f); err != nil {
			return fmt.Errorf("%s: existing file is not valid baseline JSON: %w", path, err)
		}
		if f.Baselines == nil {
			f.Baselines = map[string]*Baseline{}
		}
	case errors.Is(err, os.ErrNotExist):
		// First run: start a fresh file.
	default:
		return err
	}
	if e.goos != "" {
		f.GOOS = e.goos
	}
	if e.goarch != "" {
		f.GOARCH = e.goarch
	}
	if e.cpu != "" {
		f.CPU = e.cpu
	}
	if prev := f.Baselines[label]; prev != nil {
		for name, r := range prev.Benchmarks {
			if b.Benchmarks == nil {
				b.Benchmarks = map[string]*Result{}
			}
			if _, ok := b.Benchmarks[name]; !ok {
				b.Benchmarks[name] = r
			}
		}
	}
	f.Baselines[label] = b
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		outFile  = fs.String("o", "", "baseline file to merge into (default: print JSON to stdout)")
		label    = fs.String("label", "current", "baseline label to record the results under (with -check -baseline: the label to gate against)")
		note     = fs.String("note", "", "free-text note stored with the baseline")
		check    = fs.Bool("check", false, "validate the stream instead of recording it")
		require  = fs.String("require", "", "comma-separated benchmark names that must be present (with -check)")
		baseline = fs.String("baseline", "", "with -check: committed baseline file; every benchmark it records at 0 allocs/op under -label must still allocate nothing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, e, err := parse(in)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin (pipe `go test -bench -benchmem` output in)")
	}
	results := reduce(raw)

	if *check {
		var missing []string
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := results[name]; !ok {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			return fmt.Errorf("missing required benchmarks: %s", strings.Join(missing, ", "))
		}
		names := make([]string, 0, len(results))
		for name := range results {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			r := results[name]
			if _, err := fmt.Fprintf(out, "ok %s: %d run(s), %.0f ns/op, %.0f B/op, %.0f allocs/op\n",
				name, r.Runs, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp); err != nil {
				return err
			}
		}
		if *baseline == "" {
			return nil
		}
		checked, err := checkZeroAllocs(*baseline, *label, results)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "ok 0 allocs/op as recorded under %q in %s: %s\n",
			*label, *baseline, strings.Join(checked, ", "))
		return err
	}

	b := &Baseline{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Note:       *note,
		Benchmarks: results,
	}
	if *outFile == "" {
		data, err := json.MarshalIndent(&File{
			GOOS: e.goos, GOARCH: e.goarch, CPU: e.cpu,
			Baselines: map[string]*Baseline{*label: b},
		}, "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", data)
		return err
	}
	if err := mergeFile(*outFile, *label, b, e); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "benchjson: recorded %d benchmark(s) under %q in %s\n", len(results), *label, *outFile)
	return err
}
