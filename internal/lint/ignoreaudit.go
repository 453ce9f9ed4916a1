package lint

import "fmt"

// IgnoreAuditAnalyzer keeps the suppression vocabulary honest: an
// //pftklint:ignore directive that is malformed, names an unknown
// analyzer, or no longer suppresses anything is itself a finding. Stale
// ignores are how suppression lists rot — the code they excused gets
// refactored away and the directive silently lingers, ready to mask the
// next real finding on that line.
//
// Unlike every other analyzer it cannot run per package: staleness is
// only decidable after suppression has been applied, so its Run is a
// marker and the real logic runs in lint.Run (auditIgnores). Staleness is
// audited only for analyzers that were part of the run — `-only
// floatcmp` must not condemn every hotalloc ignore in the module.
var IgnoreAuditAnalyzer = &Analyzer{
	Name: "ignoreaudit",
	Doc:  "flags malformed, unknown-analyzer and stale //pftklint:ignore directives",
	Run:  nil, // special-cased in lint.Run; see auditIgnores
}

// auditIgnores produces the ignoreaudit findings for the collected
// directives. used records which (file, line, analyzer) keys suppressed
// at least one diagnostic during filtering.
func auditIgnores(pkgs []*Package, analyzers []*Analyzer, dirs []ignoreDirective, used map[ignoreKey]bool) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	// Positions must resolve through any of the packages' shared fset;
	// directives already carry resolved positions, so reporting needs no
	// fset access — build diagnostics directly.
	var diags []Diagnostic
	report := func(d ignoreDirective, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: IgnoreAuditAnalyzer.Name,
			Pos:      d.pos,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, d := range dirs {
		if len(d.names) == 0 {
			report(d, "ignore directive names no analyzer; use //pftklint:ignore <analyzer> <justification>")
			continue
		}
		if !d.justified {
			report(d, "ignore directive has no justification; say why the rule does not apply here")
			continue
		}
		for _, n := range d.names {
			if ByName(n) == nil {
				report(d, "ignore directive names unknown analyzer %q (use pftklint -list)", n)
				continue
			}
			if !ran[n] {
				continue // can't judge staleness for analyzers not in this run
			}
			if !used[ignoreKey{d.pos.Filename, d.pos.Line, n}] {
				report(d, "stale ignore: no %s finding is suppressed here; delete the directive", n)
			}
		}
	}
	return diags
}
