// Command pftklint runs the project's static-analysis suite
// (internal/lint) over the module. It is stdlib-only — files are
// selected with go/build, parsed with go/parser and type-checked with
// go/types against the source importer — so it runs anywhere the
// repository builds. Packages that fail to parse or type-check are
// reported (never silently skipped).
//
// Usage:
//
//	pftklint ./...                  # lint every package in the module
//	pftklint ./internal/core        # lint one directory
//	pftklint -tests ./...           # include in-package _test.go files
//	pftklint -only floatcmp ./...   # run a subset of analyzers
//	pftklint -json ./...            # machine-readable report
//	pftklint -list                  # list the analyzers
//
// A finding that is a deliberate exception is suppressed at its site
// with //pftklint:ignore <analyzer> <justification>.
//
// Exit status: 0 clean, 1 findings, 2 load errors or usage errors. Load
// errors dominate findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pftk/internal/lint"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "pftklint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the linter, printing diagnostics to out. It returns the
// process exit code: 0 clean, 1 findings, 2 load errors.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("pftklint", flag.ContinueOnError)
	var (
		dir     = fs.String("C", ".", "change to this directory before resolving packages")
		tests   = fs.Bool("tests", false, "also analyze in-package _test.go files")
		only    = fs.String("only", "", "comma-separated subset of analyzers to run")
		list    = fs.Bool("list", false, "list the available analyzers and exit")
		jsonOut = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	if *list {
		for _, a := range lint.Analyzers {
			if _, err := fmt.Fprintf(out, "%-12s %s\n", a.Name, a.Doc); err != nil {
				return 2, err
			}
		}
		return 0, nil
	}

	analyzers := lint.Analyzers
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				return 2, fmt.Errorf("unknown analyzer %q (use -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		return 2, err
	}
	loader.IncludeTests = *tests

	driver := &lint.Driver{Loader: loader, Analyzers: analyzers}
	report, err := driver.Run(resolvePatterns(*dir, fs.Args()))
	if err != nil {
		return 2, err
	}

	if *jsonOut {
		data, err := report.JSON()
		if err != nil {
			return 2, err
		}
		if _, err := out.Write(data); err != nil {
			return 2, err
		}
		return report.ExitCode(), nil
	}
	for _, f := range report.Findings {
		if _, err := fmt.Fprintln(out, f); err != nil {
			return 2, err
		}
	}
	for _, le := range report.LoadErrors {
		if _, err := fmt.Fprintf(out, "load error: %s: %s\n", le.Dir, le.Error); err != nil {
			return 2, err
		}
	}
	return report.ExitCode(), nil
}

// resolvePatterns maps the command-line package patterns to directories.
// "./..." (or no argument at all) means the whole module; anything else
// is a directory path relative to -C.
func resolvePatterns(base string, patterns []string) []string {
	var dirs []string
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." || pat == "all" {
			return nil // whole module
		}
		dir := pat
		if !strings.HasPrefix(dir, "/") {
			dir = base + "/" + strings.TrimPrefix(dir, "./")
		}
		dirs = append(dirs, dir)
	}
	return dirs
}
