package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a small Go module for the CLI to lint.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const badSource = `package bad

func eq(a, b float64) bool { return a == b }
`

const cleanSource = `package clean

func eq(a, b float64) bool { return a == 0 && b == 0 }
`

func TestRunFindings(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"bad/bad.go":     badSource,
		"clean/clean.go": cleanSource,
	})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1 (findings present)", code)
	}
	got := out.String()
	if !strings.Contains(got, "bad.go:3") || !strings.Contains(got, "floatcmp") {
		t.Errorf("output missing the expected finding:\n%s", got)
	}
	if strings.Contains(got, "clean.go") {
		t.Errorf("clean package must not be flagged:\n%s", got)
	}
}

func TestRunClean(t *testing.T) {
	dir := writeModule(t, map[string]string{"clean/clean.go": cleanSource})
	var out strings.Builder
	code, err := run([]string{"-C", dir}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0; output:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run must print nothing, got:\n%s", out.String())
	}
}

func TestRunOnlySubset(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad/bad.go": badSource})
	// The only violation is floatcmp; restricting to errdrop must be clean.
	var out strings.Builder
	code, err := run([]string{"-C", dir, "-only", "errdrop", "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("-only errdrop exit code = %d, want 0; output:\n%s", code, out.String())
	}
	if _, err := run([]string{"-C", dir, "-only", "nosuch"}, &out); err == nil {
		t.Error("-only with an unknown analyzer must error")
	}
}

func TestRunSingleDirAndList(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"bad/bad.go":     badSource,
		"clean/clean.go": cleanSource,
	})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "./clean"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Errorf("linting only ./clean: exit code = %d, want 0; output:\n%s", code, out.String())
	}

	out.Reset()
	code, err = run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-list: code=%d err=%v", code, err)
	}
	for _, name := range []string{
		"floatcmp", "errdrop", "panicstyle", "ctorparams",
		"hotalloc", "determinism", "guardedby", "directive", "jsontag", "ignoreaudit",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

const brokenSource = `package broken

func oops( {
`

func TestRunLoadErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"broken/broken.go": brokenSource,
		"bad/bad.go":       badSource,
	})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Exit code 2: a broken package must dominate findings — never be
	// silently skipped.
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (load errors dominate)", code)
	}
	got := out.String()
	if !strings.Contains(got, "load error: broken") {
		t.Errorf("output must name the broken package:\n%s", got)
	}
	// The loadable package's finding still surfaces.
	if !strings.Contains(got, "bad.go:3") || !strings.Contains(got, "floatcmp") {
		t.Errorf("findings in loadable packages must still be reported:\n%s", got)
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeModule(t, map[string]string{"bad/bad.go": badSource})
	var out strings.Builder
	code, err := run([]string{"-C", dir, "-json", "./..."}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	var doc struct {
		Module   string `json:"module"`
		Packages int    `json:"packages"`
		Findings []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Module != "tmpmod" || doc.Packages != 1 {
		t.Errorf("module=%q packages=%d, want tmpmod/1", doc.Module, doc.Packages)
	}
	if len(doc.Findings) != 1 || doc.Findings[0].Analyzer != "floatcmp" ||
		doc.Findings[0].File != "bad/bad.go" || doc.Findings[0].Line != 3 {
		t.Errorf("unexpected findings: %+v", doc.Findings)
	}
}
