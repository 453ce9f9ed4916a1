// Command experiments regenerates the paper's tables and figures from the
// emulated measurement campaign. ASCII renderings go to stdout; with -out
// every table and figure is also written as CSV for external plotting,
// along with a manifest.json recording how the results were produced.
//
// Examples:
//
//	experiments -run table2
//	experiments -run all -out results/
//	experiments -run fig7 -hour 600        # abbreviated campaign
//	experiments -run all -out results/ -metrics results/metrics.jsonl -progress
//	experiments -checkobs results/         # validate a results directory
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pftk/internal/cli"
	"pftk/internal/experiments"
	"pftk/internal/obs"
	"pftk/internal/tablefmt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

// run executes the requested experiments against args, writing reports to
// stdout and progress/diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runID    = fs.String("run", "all", "experiment to run: "+strings.Join(experiments.IDs(), ", ")+", or all")
		out      = fs.String("out", "", "directory for CSV exports and manifest.json (omit to skip)")
		hour     = fs.Float64("hour", 3600, "duration of each '1-hour' trace in simulated seconds")
		traces   = fs.Int("traces", 100, "number of serial connections in the 100-s campaign")
		short    = fs.Float64("short", 100, "duration of each short connection in seconds")
		workers  = fs.Int("j", 0, "concurrent trace simulations (0 = GOMAXPROCS); results are identical for any value")
		salt     = fs.Uint64("salt", 0, "random salt for all campaigns")
		plot     = fs.Bool("plot", false, "render figures as ASCII plots (log-x) instead of range summaries")
		metrics  = fs.String("metrics", "", "write one JSONL metric record per simulated trace to this file")
		progress = fs.Bool("progress", false, "report live campaign progress with an ETA on stderr")
		debug    = fs.String("debugaddr", "", "serve expvar and pprof on this address (e.g. :0) while running")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf  = fs.String("memprofile", "", "write a heap (allocs) profile to this file after the campaign")
		check    = fs.String("checkobs", "", "validate manifest.json and metrics JSONL in this directory, then exit")
		version  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := cli.NewWriter(stdout)
	if *version {
		w.Printf("experiments %s\n", obs.BuildVersion())
		return w.Err()
	}
	if *check != "" {
		if err := checkObsDir(*check, w); err != nil {
			return err
		}
		return w.Err()
	}
	if *hour <= 0 {
		return fmt.Errorf("-hour must be a positive duration in seconds, got %v", *hour)
	}
	if *traces <= 0 {
		return fmt.Errorf("-traces must be positive, got %d", *traces)
	}
	if *short <= 0 {
		return fmt.Errorf("-short must be a positive duration in seconds, got %v", *short)
	}
	if *workers < 0 {
		return fmt.Errorf("-j must be positive (or 0 for GOMAXPROCS), got %d", *workers)
	}
	if *debug != "" {
		addr, err := obs.ServeDebug(*debug, nil)
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(stderr, "debug server on http://%s/debug/\n", addr)
	}

	stopProf, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	opts := experiments.Options{
		HourTraceDuration:  *hour,
		ShortTraces:        *traces,
		ShortTraceDuration: *short,
		IntervalWidth:      100,
		Salt:               *salt,
		Workers:            *workers,
	}
	if *progress {
		opts.Progress = stderr
	}
	var mw *obs.JSONLWriter
	if *metrics != "" {
		if dir := filepath.Dir(*metrics); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		f, err := os.Create(*metrics)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		mw = obs.NewJSONLWriter(f)
		opts.Metrics = mw
	}

	manifest := obs.NewManifest("experiments")
	manifest.Args = args
	manifest.Salt = *salt
	manifest.Options = map[string]any{
		"hour_trace_duration":  *hour,
		"short_traces":         *traces,
		"short_trace_duration": *short,
		"interval_width":       100,
		"workers":              *workers,
	}
	start := time.Now()

	var reports []*experiments.Report
	onDone := func(r *experiments.Report, wall float64) {
		manifest.Artifacts = append(manifest.Artifacts, obs.Artifact{ID: r.ID, Title: r.Title, WallSeconds: wall})
	}
	if *runID == "all" {
		reports = experiments.RunAllTimed(opts, onDone)
	} else {
		runner, err := experiments.Get(*runID)
		if err != nil {
			return err
		}
		t0 := time.Now()
		r := runner(opts)
		onDone(r, time.Since(t0).Seconds())
		reports = []*experiments.Report{r}
	}
	var htmlBuf strings.Builder

	for _, r := range reports {
		w.Printf("==== %s: %s ====\n\n", r.ID, r.Title)
		for _, t := range r.Tables {
			w.Print(t.ASCII())
			w.Println()
		}
		for _, f := range r.Figures {
			if *plot {
				w.Print(f.ASCIIPlot(tablefmt.PlotOptions{LogX: true}))
			} else {
				w.Print(f.Summary())
			}
			w.Println()
		}
		for _, n := range r.Notes {
			w.Printf("note: %s\n", n)
		}
		w.Println()
		if *out != "" {
			files, err := export(*out, r)
			if err != nil {
				return err
			}
			manifest.Artifacts[artifactIndex(manifest, r.ID)].Files = files
			appendHTML(&htmlBuf, r)
		}
	}
	if mw != nil {
		if err := mw.Flush(); err != nil {
			return fmt.Errorf("metrics export: %w", err)
		}
		manifest.MetricsFile = *metrics
		w.Printf("%d metric records written to %s\n", mw.Records(), *metrics)
	}
	if *out != "" {
		if err := writeHTMLReport(*out, htmlBuf.String()); err != nil {
			return err
		}
		manifest.WallSeconds = time.Since(start).Seconds()
		if err := manifest.Write(filepath.Join(*out, "manifest.json")); err != nil {
			return err
		}
		w.Printf("CSV, SVG, report.html and manifest.json written under %s\n", *out)
	}
	return w.Err()
}

// artifactIndex finds the manifest entry for an experiment ID.
func artifactIndex(m *obs.Manifest, id string) int {
	for i, a := range m.Artifacts {
		if a.ID == id {
			return i
		}
	}
	return len(m.Artifacts) - 1
}

// checkObsDir validates a results directory produced with -out (and
// optionally -metrics): the manifest must match the documented schema and
// any metrics export it references must be well-formed JSONL.
// TestMetricsManifestAndCheckObs runs it against a fresh campaign.
func checkObsDir(dir string, w *cli.Writer) error {
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("checkobs: %w", err)
	}
	m, err := obs.ValidateManifest(data)
	if err != nil {
		return fmt.Errorf("checkobs: %w", err)
	}
	w.Printf("manifest ok: tool=%s version=%s artifacts=%d\n", m.Tool, m.Version, len(m.Artifacts))
	if m.MetricsFile == "" {
		w.Print("no metrics export referenced\n")
		return nil
	}
	path := m.MetricsFile
	if !filepath.IsAbs(path) {
		// Relative metric paths are resolved against the manifest's
		// directory, falling back to the raw path (the manifest records
		// the -metrics argument verbatim).
		if p := filepath.Join(dir, filepath.Base(path)); fileExists(p) {
			path = p
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkobs: %w", err)
	}
	defer func() { _ = f.Close() }()
	n, err := obs.ValidateMetricsJSONL(f)
	if err != nil {
		return fmt.Errorf("checkobs: %s: %w", path, err)
	}
	w.Printf("metrics ok: %d records in %s\n", n, path)
	return nil
}

// fileExists reports whether path names an existing file.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// appendHTML adds one report's tables (as preformatted text) and figures
// (as inline SVG) to the HTML body.
func appendHTML(b *strings.Builder, r *experiments.Report) {
	fmt.Fprintf(b, "<h2 id=%q>%s: %s</h2>\n", r.ID, r.ID, htmlEscape(r.Title))
	for _, t := range r.Tables {
		fmt.Fprintf(b, "<pre>%s</pre>\n", htmlEscape(t.ASCII()))
	}
	for _, f := range r.Figures {
		var svg strings.Builder
		if err := f.WriteSVG(&svg, tablefmt.SVGOptions{LogX: figureWantsLogX(r.ID)}); err == nil {
			b.WriteString(svg.String())
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(b, "<p><em>%s</em></p>\n", htmlEscape(n))
	}
}

// figureWantsLogX: loss-rate axes are logarithmic; trace-number and
// flow-size axes are linear.
func figureWantsLogX(id string) bool {
	switch id {
	case "fig8", "fig9", "fig10", "shortflows":
		return false
	}
	return true
}

// writeHTMLReport assembles the standalone report page.
func writeHTMLReport(dir, body string) error {
	page := "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">" +
		"<title>PFTK reproduction report</title>" +
		"<style>body{font-family:sans-serif;max-width:960px;margin:2em auto;padding:0 1em}" +
		"pre{background:#f6f6f6;padding:0.8em;overflow-x:auto;font-size:12px}</style>" +
		"</head><body>\n<h1>PFTK reproduction report</h1>\n" +
		body + "</body></html>\n"
	return os.WriteFile(filepath.Join(dir, "report.html"), []byte(page), 0o644)
}

// htmlEscape escapes HTML metacharacters.
func htmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// export writes every table and figure of a report as CSV files named
// <id>_table<i>.csv and <id>_fig<i>.csv (plus SVG renderings), returning
// the created file names for the manifest.
func export(dir string, r *experiments.Report) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var files []string
	add := func(name string, write func(io.Writer) error) error {
		if err := writeFile(filepath.Join(dir, name), write); err != nil {
			return err
		}
		files = append(files, name)
		return nil
	}
	for i, t := range r.Tables {
		if err := add(fmt.Sprintf("%s_table%d.csv", r.ID, i), t.WriteCSV); err != nil {
			return nil, err
		}
	}
	for i, fig := range r.Figures {
		if err := add(fmt.Sprintf("%s_fig%d.csv", r.ID, i), fig.WriteCSV); err != nil {
			return nil, err
		}
		writeSVG := func(w io.Writer) error {
			return fig.WriteSVG(w, tablefmt.SVGOptions{LogX: figureWantsLogX(r.ID)})
		}
		if err := add(fmt.Sprintf("%s_fig%d.svg", r.ID, i), writeSVG); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// writeFile creates path and streams write into it, propagating a failed
// Close (buffered data that never reached the disk) as an error.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer cli.CloseWith(&err, f)
	return write(f)
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
