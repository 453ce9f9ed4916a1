// Command benchjson turns `go test -bench -benchmem` output into a
// tracked JSON benchmark baseline. It reads the benchmark text on stdin,
// takes the per-metric median across repeated runs (-count), with the
// fastest and slowest ns/op beside it so a reader can see how far the
// runs spread, and either
// prints the result or merges it under a named label into a baseline file
// such as BENCH_sim.json — so before/after performance numbers live in
// the repository next to the code they measure.
//
// Example:
//
//	go test -run '^$' -bench 'BenchmarkSimulatedSecond$' -benchmem \
//	    -benchtime 100000x -count 5 . | benchjson -label post -o BENCH_sim.json
//
// make bench-json records the whole ledger this way. The allocation
// rungs it records at 0 allocs/op are pinned by testing.AllocsPerRun
// tests, so go test fails when one starts allocating.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is the median of one benchmark's metrics across its runs, with
// the range of its ns/op: a change whose median moves less than that
// spread has not been shown to move the rung.
type Result struct {
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
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
				r.NsPerOpMin, r.NsPerOpMax = slices.Min(vs), slices.Max(vs)
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
		outFile = fs.String("o", "", "baseline file to merge into (default: print JSON to stdout)")
		label   = fs.String("label", "current", "baseline label to record the results under")
		note    = fs.String("note", "", "free-text note stored with the baseline")
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
	// mergeFile folds the label's earlier entries into results; count
	// this run's benchmarks first.
	n := len(results)
	if err := mergeFile(*outFile, *label, b, e); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "benchjson: recorded %d benchmark(s) under %q in %s\n", n, *label, *outFile)
	return err
}
