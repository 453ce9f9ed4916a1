package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

// selfRun is the one whole-module Driver run in this test binary; the
// self-tests below share it rather than load the module again.
var selfRun struct {
	once   sync.Once
	loader *Loader
	dirs   []string
	report *Report
	err    error
}

// selfReport runs the Driver over this repository once and returns the
// loader, the walked dirs and the report.
func selfReport(t *testing.T) (*Loader, []string, *Report) {
	t.Helper()
	selfRun.once.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			selfRun.err = err
			return
		}
		loader, err := NewLoader(root)
		if err != nil {
			selfRun.err = err
			return
		}
		dirs, err := loader.Dirs()
		if err != nil {
			selfRun.err = err
			return
		}
		report, err := (&Driver{Loader: loader}).Run(dirs)
		selfRun.loader, selfRun.dirs, selfRun.report, selfRun.err = loader, dirs, report, err
	})
	if selfRun.err != nil {
		t.Fatal(selfRun.err)
	}
	return selfRun.loader, selfRun.dirs, selfRun.report
}

// TestLintSelf runs the full analyzer suite over this repository itself,
// so `go test ./...` fails the moment a violation lands anywhere in the
// module. It drives the same Driver as `go run ./cmd/pftklint ./...`:
// the walk must cover the module and report zero findings.
func TestLintSelf(t *testing.T) {
	loader, dirs, report := selfReport(t)
	if loader.ModulePath() != "pftk" {
		t.Fatalf("module path = %q, want pftk (loader rooted in the wrong module?)", loader.ModulePath())
	}
	walked := false
	for _, dir := range dirs {
		walked = walked || loader.relPath(dir) == "perfbench"
	}
	if !walked {
		t.Error("the module walk skips perfbench/")
	}
	if report.Packages < 10 {
		t.Fatalf("only %d packages loaded; the walk is missing most of the module", report.Packages)
	}
	for _, f := range report.Findings {
		t.Errorf("%s", f)
	}
}

// TestDriverSelfCheck is the pftklint exit contract in test form: the
// same run must load every package (zero load errors) and exit 0, which
// is what `pftklint ./...` asserts.
func TestDriverSelfCheck(t *testing.T) {
	_, _, report := selfReport(t)
	for _, le := range report.LoadErrors {
		t.Errorf("load error: %s: %s", le.Dir, le.Error)
	}
	if code := report.ExitCode(); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
}
