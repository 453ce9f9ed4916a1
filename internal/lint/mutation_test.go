package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutation is one edit of real repository code that introduces a defect
// the rest of CI (build, go vet, go test with and without -race, the
// fuzz targets, the perfbench and chaos smoke runs) lets through, and
// that the named analyzer flags. An analyzer with no such edit has no
// defect to its name and is not part of the suite.
type mutation struct {
	analyzer string
	file     string // module-relative, slash-separated
	before   string // must occur exactly once in file
	after    string
}

var mutations = []mutation{
	// A trace ending at 1.7 s split into 0.1-s intervals: 17*0.1 rounds
	// to 1.7000000000000002, so the != form counts an 18th, empty
	// interval lying wholly after the trace.
	{"floatcmp", "internal/analysis/intervals.go",
		"\tif float64(n)*width < end {\n",
		"\tif float64(n)*width != end {\n"},
	// A failed metrics export (disk full) exits 0 and the manifest names
	// a truncated JSONL file.
	{"errdrop", "cmd/experiments/main.go",
		"\t\tif err := mw.Flush(); err != nil {\n\t\t\treturn fmt.Errorf(\"metrics export: %w\", err)\n\t\t}\n",
		"\t\tmw.Flush()\n"},
	// Every delivery inside a reordering window allocates a closure on
	// the Link.Send path documented and pinned as allocation-free; the
	// alloc tests run no reordering window, and the output is unchanged.
	{"hotalloc", "internal/netem/link.go",
		"\t\tl.eng.SchedulePacket(at, deliver, payload)\n",
		"\t\tl.eng.Schedule(at, func() { deliver(payload) })\n"},
	// pftkchaos -progress lines arrive out of order, and the last ones
	// can be lost when Run returns first.
	{"determinism", "internal/chaos/campaign.go",
		"\t\t\tcfg.Progress(i+1, cfg.Runs)\n",
		"\t\t\tgo cfg.Progress(i+1, cfg.Runs)\n"},
	// /healthz reads a cache shard's map while request goroutines write
	// it; no test calls /healthz concurrently with a cache fill.
	{"guardedby", "internal/serve/cache.go",
		"\ts.mu.Lock()\n\tn := len(s.items)\n\ts.mu.Unlock()\n\treturn n\n",
		"\treturn len(s.items)\n"},
	// /v1/predict renames its "rates" member to "Rates" on the wire; the
	// tests and perfbench decode into the same Go struct.
	{"jsontag", "internal/serve/predict.go",
		"\tRates   map[string]float64 `json:\"rates\"`\n",
		"\tRates   map[string]float64\n"},
	// A predict batch that fails evaluation never commits its eval span,
	// so the failing request is missing from /debug/tracez.
	{"spanend", "internal/serve/serve.go",
		"\t\t\tesp.End()\n\t\t\twriteError(w, http.StatusBadRequest, \"request %d: %v\", bad, err)\n\t\t\treturn\n",
		"\t\t\twriteError(w, http.StatusBadRequest, \"request %d: %v\", bad, err)\n\t\t\treturn\n"},
}

// TestMutationsOnlyLintCatches applies every mutation to one copy of the
// module and requires each to be flagged by its analyzer within the
// lines it rewrote. A before text that no longer occurs exactly once
// fails the test, so a row cannot silently drift off the code it pins.
func TestMutationsOnlyLintCatches(t *testing.T) {
	rows := map[string]bool{}
	for _, m := range mutations {
		rows[m.analyzer] = true
	}
	for _, a := range Analyzers {
		if a != IgnoreAuditAnalyzer && !rows[a.Name] {
			t.Errorf("analyzer %s has no mutation row", a.Name)
		}
	}

	self, _, _ := selfReport(t)
	dst := t.TempDir()
	copyModule(t, self.root, dst)

	type site struct {
		path        string
		first, last int
	}
	sites := make([]site, len(mutations))
	var dirs []string
	seen := map[string]bool{}
	for i, m := range mutations {
		path := filepath.Join(dst, filepath.FromSlash(m.file))
		if seen[path] {
			t.Fatalf("two mutations edit %s; give each file one row", m.file)
		}
		seen[path] = true
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if n := strings.Count(src, m.before); n != 1 {
			t.Fatalf("%s row: before text occurs %d times in %s, want exactly once:\n%s", m.analyzer, n, m.file, m.before)
		}
		at := strings.Index(src, m.before)
		first := strings.Count(src[:at], "\n") + 1
		sites[i] = site{path, first, first + strings.Count(strings.TrimSuffix(m.after, "\n"), "\n")}
		if err := os.WriteFile(path, []byte(strings.Replace(src, m.before, m.after, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, filepath.Dir(path))
	}

	loader, err := NewLoader(dst)
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the self-run's stdlib importer: type-checking the standard
	// library from source again would double the package's test time.
	loader.fset, loader.std = self.fset, self.std
	pkgs, loadErrs, err := loader.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range loadErrs {
		t.Fatalf("mutated package does not load: %s: %s", le.Dir, le.Error)
	}
	diags := Run(pkgs, Analyzers)
	for i, m := range mutations {
		s, flagged := sites[i], false
		for _, d := range diags {
			flagged = flagged || d.Analyzer == m.analyzer && d.Pos.Filename == s.path && d.Pos.Line >= s.first && d.Pos.Line <= s.last
		}
		if !flagged {
			t.Errorf("%s does not flag its mutation of %s (lines %d-%d)", m.analyzer, m.file, s.first, s.last)
		}
	}
}

// copyModule copies go.mod and every Go source file the loader would
// walk from the module at src into dst.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != src && skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
