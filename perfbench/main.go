// Command perfbench is the repository benchmark. It drives the paper
// pipeline, the multi-flow engine and the pftkd serving layer from
// outside, through their public functions, checks every output against
// the program's own code path, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the timed phase is split in two halves, untraced then
// traced; the result carries the per-layer metrics, the spans are
// written as JSONL and a per-layer self-time summary is printed above
// the result line.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupSamples is how many child processes measure setup_s; the
// reported value is their median.
const setupSamples = 3

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"paper":       runPaper,
	"population":  runPopulation,
	"serve-hot":   func(cfg runConfig) (*outcome, error) { return runServe(cfg, false) },
	"serve-mixed": func(cfg runConfig) (*outcome, error) { return runServe(cfg, true) },
}

// runConfig is what a workload runner receives.
type runConfig struct {
	seed    uint64
	seconds float64
	// traced splits the timed phase: the first half untraced, the
	// second recorded by spans.
	traced bool
	spans  *tracer
	// setupOnly asks the runner to set up, report readiness and stop.
	setupOnly bool
}

// half returns the length of one timed phase.
func (c runConfig) half() time.Duration {
	d := c.seconds
	if c.traced {
		d /= 2
	}
	return time.Duration(d * float64(time.Second))
}

// outcome is what a workload runner returns.
type outcome struct {
	attempted, failed int
	// p50 and p90 are the untraced ops' latency quantiles in seconds,
	// and rates the completed ops per second of each window of the
	// untraced phase: of each op for the batch workloads, of each
	// fixed window for the serve workloads. ops_per_s is their median.
	p50, p90 float64
	rates    []float64
	// tracedRates are the rates of the traced phase.
	tracedRates []float64
	rssMB       float64
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// notes are human-readable lines printed above the result.
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload: paper, population, serve-hot or serve-mixed")
		seed      = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds   = fs.Float64("seconds", 20, "length of the timed phase in seconds")
		trace     = fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
		setupOnly = fs.Bool("setup-only", false, "set up, print \"ready\" and exit (used to time setup in a fresh process)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: paper, population, serve-hot, serve-mixed)", *name)
	}
	if !(*seconds > 0) || *seconds > 600 {
		return fmt.Errorf("--seconds must be in (0, 600], got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	// The serving layer sizes its pool from GOMAXPROCS, and every
	// figure in this benchmark is taken with at most two processors.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, setupOnly: *setupOnly}
	if cfg.setupOnly {
		_, err := runner(cfg)
		return err
	}
	var setup []float64
	if !cfg.traced {
		var err error
		if setup, err = measureSetup(*name, *seed); err != nil {
			return err
		}
	} else {
		cfg.spans = newTracer()
	}
	out, err := runner(cfg)
	if err != nil {
		return err
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	if cfg.traced {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", *name, *seed)
		if err := cfg.spans.writeJSONL(path); err != nil {
			return err
		}
		cfg.spans.printSummary(os.Stdout, path)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: out.layer[m.name], Unit: m.unit}
		}
	} else {
		res.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s"}
		res.Metrics["ops_per_s"] = metric{Value: median(out.rates), Unit: "1/s"}
		res.Metrics["p50_ms"] = metric{Value: 1e3 * out.p50, Unit: "ms"}
		res.Metrics["p90_ms"] = metric{Value: 1e3 * out.p90, Unit: "ms"}
		res.Metrics["rss_mb"] = metric{Value: out.rssMB, Unit: "MB"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureSetup times setupSamples fresh child processes from exec to
// the moment each reports its first op could start. Children run one at
// a time, so none competes with another or with the timed phase.
func measureSetup(name string, seed uint64) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupSamples; i++ {
		cmd := exec.Command(self, "--setup-only", "--workload", name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := time.Since(start).Seconds()
		waitErr := cmd.Wait()
		if readErr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("setup child %d: did not report ready (%q, %v, exit %v)", i, line, readErr, waitErr)
		}
		if waitErr != nil {
			return nil, fmt.Errorf("setup child %d: %w", i, waitErr)
		}
		out = append(out, elapsed)
	}
	return out, nil
}

// ready tells the parent measuring setup_s that the first op could
// start now.
func ready() {
	fmt.Println("ready")
}

// timeOps runs op back to back until d has elapsed, at least once, and
// returns each op's latency. An op returns a function that reduces its
// output for the later check; it runs after the op's timing stops. A
// collection runs between ops, also untimed, so every op starts from
// the same heap state.
func timeOps(d time.Duration, op func() (reduce func())) (lat []float64) {
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < d {
		runtime.GC()
		t := time.Now()
		reduce := op()
		lat = append(lat, time.Since(t).Seconds())
		reduce()
	}
	return lat
}

// inverse returns 1/x for each op latency: each op's rate.
func inverse(lat []float64) []float64 {
	out := make([]float64, len(lat))
	for i, l := range lat {
		out[i] = 1 / l
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// memDelta measures allocation and collection between two points.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// perOp returns MB allocated and GC cycles per op since startMem. The
// collections timeOps forces between ops are not counted.
func (m *memDelta) perOp(ops int) (allocMB, gcCycles float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	cycles := (after.NumGC - after.NumForcedGC) - (m.before.NumGC - m.before.NumForcedGC)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20) / n, float64(cycles) / n
}

// describeErrs summarizes the first few op failures for the notes.
func describeErrs(errs []error) []string {
	var out []string
	for i, err := range errs {
		if i == 3 {
			out = append(out, fmt.Sprintf("... and %d more failures", len(errs)-i))
			break
		}
		out = append(out, "FAILED: "+err.Error())
	}
	return out
}
