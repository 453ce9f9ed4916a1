package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file map under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
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

// driverModule is a module with one broken package, one package that
// imports it (so type-checking fails transitively), and one clean
// package with a finding. The driver must report both load errors AND
// the finding — lenient loading is the whole point.
var driverModule = map[string]string{
	"go.mod": "module drv\n\ngo 1.22\n",

	"broken/broken.go": `package broken

func oops( {
`,

	"importer/importer.go": `package importer

import "drv/broken"

var _ = broken.X
`,

	"dirty/dirty.go": `package dirty

func eq(a, b float64) bool { return a == b }
`,

	"clean/clean.go": `package clean

func ok() int { return 1 }
`,
}

func newDriver(t *testing.T, root string) *Driver {
	t.Helper()
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return &Driver{Loader: loader}
}

func TestDriverLenientLoading(t *testing.T) {
	root := writeTree(t, driverModule)
	report, err := newDriver(t, root).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.LoadErrors) != 2 {
		t.Fatalf("want 2 load errors (broken, importer), got %v", report.LoadErrors)
	}
	var dirs []string
	for _, le := range report.LoadErrors {
		dirs = append(dirs, le.Dir)
	}
	if dirs[0] != "broken" || dirs[1] != "importer" {
		t.Errorf("load error dirs = %v, want [broken importer]", dirs)
	}
	// The finding in dirty must still surface despite the broken
	// packages.
	if len(report.Findings) != 1 || report.Findings[0].Analyzer != "floatcmp" {
		t.Fatalf("want the dirty/ floatcmp finding, got %v", report.Findings)
	}
	if report.Findings[0].File != "dirty/dirty.go" {
		t.Errorf("finding file = %q, want module-relative dirty/dirty.go", report.Findings[0].File)
	}
	if report.Packages != 2 {
		t.Errorf("packages analyzed = %d, want 2 (dirty, clean)", report.Packages)
	}
	if report.ExitCode() != 2 {
		t.Errorf("exit code = %d, want 2 (load errors dominate findings)", report.ExitCode())
	}
}

func TestReportJSONGolden(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module golden\n\ngo 1.22\n",
		"p/p.go": `package p

func eq(a, b float64) bool { return a == b }
`,
	})
	report, err := newDriver(t, root).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "module": "golden",
  "packages": 1,
  "findings": [
    {
      "analyzer": "floatcmp",
      "file": "p/p.go",
      "line": 3,
      "col": 39,
      "message": "floating-point values a and b compared with ==; compare against an explicit sentinel constant or use a tolerance"
    }
  ]
}
`
	if string(data) != want {
		t.Errorf("JSON report mismatch:\ngot:\n%s\nwant:\n%s", data, want)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("JSON report must end with a newline")
	}
}

func TestReportJSONEmptyFindings(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module empty\n\ngo 1.22\n",
		"p/p.go": "package p\n\nfunc ok() {}\n",
	})
	report, err := newDriver(t, root).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// A clean run must serialize findings as [], never null — consumers
	// iterate the array without nil checks.
	if !strings.Contains(string(data), `"findings": []`) {
		t.Errorf("clean report must have \"findings\": [], got:\n%s", data)
	}
	if report.ExitCode() != 0 {
		t.Errorf("clean exit code = %d, want 0", report.ExitCode())
	}
}
