// Package lint implements pftklint, the project's static-analysis suite
// for the PFTK numerics, built entirely on the standard library's go/ast,
// go/parser, go/token and go/types packages.
//
// The analyzers encode project-specific correctness rules that go vet
// cannot know about:
//
//   - floatcmp: ==/!= between non-constant floating-point expressions
//     (the model's domain is pure float math; exact equality is only
//     meaningful against explicitly assigned sentinels, which compare
//     against constants and are therefore allowed).
//   - errdrop: discarded error results in non-test code.
//   - panicstyle: panic messages must carry the "<pkg>: " prefix.
//   - ctorparams: exported New* constructors taking more than 5
//     positional parameters (use a config struct or functional options).
//   - hotalloc: capturing closures and append calls inside functions
//     marked //pftk:hotpath — the advisory allocation gate backing the
//     zero-allocation event core.
//   - determinism: wall-clock reads, global math/rand, goroutine spawns
//     and unordered map iteration inside the simulation packages and
//     //pftk:deterministic functions.
//   - guardedby: fields and package variables annotated
//     //pftk:guardedby mu accessed without a dominating Lock/RLock or a
//     //pftk:locked(mu) caller contract.
//   - ignoreaudit: every //pftklint:ignore directive must name a known
//     analyzer, carry a justification, and actually suppress a finding.
//   - directive: unknown or misplaced //pftk: annotations (a typo in a
//     directive silently disables its invariant).
//   - jsontag: structs that JSON-tag some exported fields must tag all
//     of them — a missing tag silently leaks the Go name on the wire.
//   - spanend: a tracez span that is started must be ended on every
//     path (defer v.End(), End before each return, or an explicit
//     ownership transfer) — an unended span never commits to the ring.
//
// A diagnostic can be suppressed at a specific site with a directive
// comment on, or on the line before, the offending line:
//
//	//pftklint:ignore floatcmp exact comparison is intended here
//
// The first word after "ignore" is the analyzer name (or a
// comma-separated list); the rest is a mandatory justification. The
// ignoreaudit analyzer turns malformed and stale directives into
// findings of their own. Adding a new analyzer means writing one file
// with a Run(*Pass) function and appending it to Analyzers — see
// DESIGN.md's "Correctness tooling" section.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	// The ignoreaudit analyzer is the one exception: Run (the suite
	// function) audits after suppression, and its Run is nil.
	Run func(*Pass)
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	FloatCmpAnalyzer,
	ErrDropAnalyzer,
	PanicStyleAnalyzer,
	CtorParamsAnalyzer,
	HotAllocAnalyzer,
	DeterminismAnalyzer,
	GuardedByAnalyzer,
	DirectiveAnalyzer,
	JSONTagAnalyzer,
	SpanEndAnalyzer,
	IgnoreAuditAnalyzer,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer is the name of the pass that produced the finding.
	Analyzer string
	// Pos locates the finding in the source.
	Pos token.Position
	// Message describes the problem.
	Message string
}

// String formats the diagnostic the way compilers do:
// file:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	// Analyzer is the pass being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Facts gives the pass read access to the annotation tables of
	// every package in the run, keyed by type-checker package identity.
	Facts *FactTable

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to the packages and returns the surviving
// diagnostics sorted by position. Findings suppressed by
// //pftklint:ignore directives are dropped; when the ignoreaudit
// analyzer is part of the run, malformed and stale directives become
// findings.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := NewFactTable(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}

	dirs := collectIgnores(pkgs)
	used := map[ignoreKey]bool{}
	diags = filterIgnored(dirs, diags, used)
	for _, a := range analyzers {
		if a == IgnoreAuditAnalyzer {
			audit := auditIgnores(pkgs, analyzers, dirs, used)
			// Audit findings are themselves suppressible (an
			// intentionally-retained directive can carry its own
			// //pftklint:ignore ignoreaudit justification).
			diags = append(diags, filterIgnored(dirs, audit, used)...)
			break
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreKey identifies one suppressed (file, line, analyzer) site.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreDirective is one parsed //pftklint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	names     []string // analyzers named; nil when the list is missing
	justified bool     // a justification followed the analyzer list
}

// collectIgnores parses every //pftklint:ignore directive in the
// packages, including malformed ones (the audit reports those; the
// filter honours only well-formed directives).
func collectIgnores(pkgs []*Package) []ignoreDirective {
	var dirs []ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, justified, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					dirs = append(dirs, ignoreDirective{pos: pkg.Fset.Position(c.Pos()), names: names, justified: justified})
				}
			}
		}
	}
	return dirs
}

// filterIgnored drops diagnostics matched by a well-formed ignore
// directive on the same line or the line directly above, recording every
// key that actually suppressed something in used.
func filterIgnored(dirs []ignoreDirective, diags []Diagnostic, used map[ignoreKey]bool) []Diagnostic {
	ignores := map[ignoreKey]bool{}
	for _, d := range dirs {
		if !d.justified {
			continue // unjustified directives are not honoured
		}
		for _, n := range d.names {
			ignores[ignoreKey{d.pos.Filename, d.pos.Line, n}] = true
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		same := ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}
		above := ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}
		if ignores[same] {
			used[same] = true
			continue
		}
		if ignores[above] {
			used[above] = true
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// parseIgnore parses a "//pftklint:ignore name[,name...] justification"
// comment. ok reports whether text is a directive at all; names is nil
// when the analyzer list is missing, and justified reports whether a
// justification followed it. Only a justified directive suppresses
// anything: the whole point of an ignore is recording why the rule does
// not apply. The audit reports the malformed ones.
func parseIgnore(text string) (names []string, justified, ok bool) {
	rest, ok := strings.CutPrefix(text, "//pftklint:ignore")
	if !ok {
		return nil, false, false
	}
	if fields := strings.Fields(rest); len(fields) > 0 {
		names = strings.Split(fields[0], ",")
		justified = len(fields) >= 2
	}
	return names, justified, true
}
