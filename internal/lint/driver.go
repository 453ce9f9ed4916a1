// The whole-repo analysis driver: one serial pipeline that
//
//  1. loads every requested package, collecting per-package load errors
//     instead of aborting (a parse error in one package must not hide
//     findings — or worse, pretend cleanliness — elsewhere);
//  2. runs the analyzer suite (Run) over the loadable packages, which
//     computes the cross-package annotation facts, analyzes, applies
//     //pftklint:ignore suppression and the ignore audit, and sorts;
//  3. renders the result as a deterministic Report, as text or JSON.
//
// Loading dominates: type-checking the module takes seconds, analyzing
// it tens of milliseconds, so the analyze stage runs serially.
//
// Exit-code contract (Report.ExitCode): 0 clean, 1 findings, 2 load
// errors. Load errors dominate findings — a partially-analyzed module
// is never reported as merely "has findings".
package lint

import (
	"encoding/json"
	"fmt"
)

// Finding is one diagnostic in report form: the file is relative to the
// module root, so reports are stable across checkouts.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the finding the way compilers do.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// LoadError is one package that could not be parsed or type-checked.
type LoadError struct {
	// Dir is the package directory relative to the module root.
	Dir string `json:"dir"`
	// Error is the parse or type-check failure.
	Error string `json:"error"`
}

// Report is the machine-readable result of one driver run.
type Report struct {
	// Module is the module path under analysis.
	Module string `json:"module"`
	// Packages counts the packages successfully analyzed.
	Packages int `json:"packages"`
	// Findings are the surviving diagnostics, sorted by position.
	Findings []Finding `json:"findings"`
	// LoadErrors are the packages that failed to load, sorted by dir.
	LoadErrors []LoadError `json:"load_errors,omitempty"`
}

// ExitCode maps the report onto the process exit contract:
// 0 clean, 1 findings, 2 load errors (which dominate findings).
func (r *Report) ExitCode() int {
	switch {
	case len(r.LoadErrors) > 0:
		return 2
	case len(r.Findings) > 0:
		return 1
	}
	return 0
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Driver runs the analyzer suite over many packages with lenient
// loading.
type Driver struct {
	// Loader supplies the packages. Required.
	Loader *Loader
	// Analyzers is the pass list; nil means the full suite.
	Analyzers []*Analyzer
}

// Run loads the requested package directories (nil or empty dirs means
// the whole module) and analyzes them. Load failures land in the
// report's LoadErrors; analysis still covers every loadable package.
func (d *Driver) Run(dirs []string) (*Report, error) {
	analyzers := d.Analyzers
	if analyzers == nil {
		analyzers = Analyzers
	}
	pkgs, loadErrs, err := d.Loader.Load(dirs)
	if err != nil {
		return nil, err
	}
	report := &Report{
		Module:     d.Loader.ModulePath(),
		Packages:   len(pkgs),
		Findings:   []Finding{},
		LoadErrors: loadErrs,
	}
	for _, diag := range Run(pkgs, analyzers) {
		report.Findings = append(report.Findings, Finding{
			Analyzer: diag.Analyzer,
			File:     d.Loader.relPath(diag.Pos.Filename),
			Line:     diag.Pos.Line,
			Col:      diag.Pos.Column,
			Message:  diag.Message,
		})
	}
	return report, nil
}
