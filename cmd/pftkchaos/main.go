// Command pftkchaos runs randomized scenario-soak campaigns against the
// simulator: it samples cases from a distribution spec (see
// internal/chaos), executes them across a worker pool, checks the
// global invariants on every run — packet conservation, sender vs. link
// and trace vs. sender agreement, phase attribution, model envelope,
// byte-exact replay — and, on failure, shrinks the case to a minimal
// repro in the corpus directory. Every invariant sets one record of the
// run against another; none checks the metric registry, whose values
// are derived from those same records and never counted twice. In -mode http the same cases are fed to a live pftkd and
// cross-checked against the in-process oracle; -mode drill runs the
// kill-and-restart crash-recovery drill against a pftkd binary.
//
// Examples:
//
//	pftkchaos -n 500 -seed 1 -j 8 -out report.json
//	pftkchaos -spec custom.json -n 2000 -corpus testdata/chaos-corpus
//	pftkchaos -mode http -url http://127.0.0.1:8080 -n 50
//	pftkchaos -mode drill -pftkd ./pftkd
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pftk/internal/chaos"
	"pftk/internal/chaos/chaoshttp"
	"pftk/internal/cli"
	"pftk/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pftkchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath  = fs.String("spec", "", "distribution spec JSON (empty = built-in default)")
		printSpec = fs.Bool("printspec", false, "print the effective spec JSON and exit")
		n         = fs.Int("n", 500, "cases to generate and check")
		seed      = fs.Uint64("seed", 1, "campaign seed; (spec, seed) replays the campaign exactly")
		j         = fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size")
		out       = fs.String("out", "", "write the campaign report JSON to this file (\"-\" = stdout)")
		corpus    = fs.String("corpus", "", "write shrunk minimal repros into this directory")
		maxRepros = fs.Int("maxrepros", 5, "failures to shrink and persist per campaign")
		mode      = fs.String("mode", "sim", "sim (local invariant soak), http (feed a live pftkd), drill (crash-recovery drill)")
		url       = fs.String("url", "http://127.0.0.1:8080", "pftkd base URL for -mode http")
		pftkd     = fs.String("pftkd", "", "pftkd binary path for -mode drill")
		maxWall   = fs.Duration("maxwall", 0, "kill the campaign if it outlives this wall-clock budget (0 = no box)")
		progress  = fs.Bool("progress", false, "print a progress line every 100 cases")
		version   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := cli.NewWriter(stdout)
	if *version {
		w.Printf("pftkchaos %s\n", obs.BuildVersion())
		return w.Err()
	}
	if *n < 1 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	if *j < 1 {
		return fmt.Errorf("-j must be positive, got %d", *j)
	}
	if *maxRepros < 1 {
		return fmt.Errorf("-maxrepros must be positive, got %d", *maxRepros)
	}
	switch *mode {
	case "sim", "http", "drill":
	default:
		return fmt.Errorf("unknown -mode %q (valid: sim, http, drill)", *mode)
	}
	if *mode == "drill" && *pftkd == "" {
		return fmt.Errorf("-mode drill needs -pftkd <binary>")
	}

	sp := new(chaos.Spec)
	if *specPath == "" {
		*sp = chaos.DefaultSpec()
	} else {
		loaded, err := chaos.ParseSpecFile(*specPath)
		if err != nil {
			return err
		}
		sp = loaded
	}
	if *printSpec {
		data, err := sp.Encode()
		if err != nil {
			return err
		}
		w.WriteString(string(data))
		return w.Err()
	}

	if *maxWall > 0 {
		// A hard wall-clock box: a wedged campaign (livelocked run,
		// stuck daemon) must fail loudly in CI, not hang it.
		time.AfterFunc(*maxWall, func() {
			_, _ = fmt.Fprintf(stderr, "pftkchaos: campaign exceeded -maxwall %v\n", *maxWall)
			os.Exit(3)
		})
	}

	switch *mode {
	case "http":
		return runHTTP(w, sp, *url, *seed, *n)
	case "drill":
		return runDrill(w, stderr, *pftkd, *seed)
	}

	cfg := chaos.Config{
		Spec:      sp,
		Runs:      *n,
		Seed:      *seed,
		Workers:   *j,
		CorpusDir: *corpus,
		MaxRepros: *maxRepros,
	}
	if *progress {
		cfg.Progress = func(done, total int) {
			if done%100 == 0 || done == total {
				_, _ = fmt.Fprintf(stderr, "pftkchaos: %d/%d\n", done, total)
			}
		}
	}
	rep, err := chaos.Run(cfg)
	if err != nil {
		return err
	}
	if err := writeReport(w, *out, rep); err != nil {
		return err
	}
	w.Printf("pftkchaos: %d cases, %d failures (spec %s seed %d)\n",
		rep.Runs, rep.Failures, rep.SpecHash[:8], rep.Seed)
	for _, o := range rep.Outcomes {
		for _, v := range o.Violations {
			w.Printf("  case %d [%s]: %s\n", o.Index, v.Invariant, v.Detail)
		}
	}
	for _, path := range rep.Repros {
		w.Printf("  minimal repro: %s\n", path)
	}
	if err := w.Err(); err != nil {
		return err
	}
	if rep.Failures > 0 {
		return fmt.Errorf("%d of %d cases violated invariants", rep.Failures, rep.Runs)
	}
	return nil
}

// writeReport renders the report to -out (file, stdout, or nowhere).
func writeReport(w *cli.Writer, out string, rep *chaos.Report) error {
	if out == "" {
		return nil
	}
	data, err := rep.Encode()
	if err != nil {
		return err
	}
	if out == "-" {
		w.WriteString(string(data))
		return w.Err()
	}
	return os.WriteFile(out, data, 0o644)
}

// runHTTP feeds the campaign to a live daemon and reports cross-check
// violations.
func runHTTP(w *cli.Writer, sp *chaos.Spec, url string, seed uint64, n int) error {
	rep, err := chaoshttp.Feed(chaoshttp.FeedConfig{URL: url, Spec: sp, Seed: seed, Cases: n})
	if err != nil {
		return err
	}
	w.Printf("pftkchaos: http campaign against %s: %d submitted, %d completed, %d cache replays, %d violations\n",
		url, rep.Submitted, rep.Completed, rep.CacheHits, len(rep.Violations))
	for _, v := range rep.Violations {
		w.Printf("  [%s] %s\n", v.Invariant, v.Detail)
	}
	if err := w.Err(); err != nil {
		return err
	}
	if rep.Failed() {
		return fmt.Errorf("%d cross-check violations", len(rep.Violations))
	}
	return nil
}

// runDrill runs the kill-and-restart crash-recovery drill.
func runDrill(w *cli.Writer, stderr io.Writer, binary string, seed uint64) error {
	rep, err := chaoshttp.Drill(chaoshttp.DrillConfig{Binary: binary, Seed: seed, Log: stderr})
	if err != nil {
		return err
	}
	w.Printf("pftkchaos: drill: %d jobs killed in flight, %d violations\n",
		rep.KilledInFlight, len(rep.Violations))
	for _, v := range rep.Violations {
		w.Printf("  [%s] %s\n", v.Invariant, v.Detail)
	}
	if err := w.Err(); err != nil {
		return err
	}
	if rep.Failed() {
		return fmt.Errorf("%d crash-recovery violations", len(rep.Violations))
	}
	return nil
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "pftkchaos:", err)
	os.Exit(1)
}
