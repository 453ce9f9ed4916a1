package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces the reproducibility contract every result
// in this repository rests on: golden traces, serial==parallel
// byte-identity and the model-vs-measured error tables are only
// meaningful if a seeded simulation replays identically. Inside the
// deterministic scope it flags the four ways wall-clock state or
// scheduler state classically leaks into simulation output:
//
//   - time.Now / time.Since / time.Sleep — real time must never reach a
//     virtual-clock computation; use Engine.Now.
//   - the global math/rand generator — its stream is shared, seedable
//     from elsewhere, and not stable across Go releases; use sim.RNG.
//   - go statements — goroutine interleaving is scheduler-dependent;
//     event ordering must come from the engine's (time, seq) heap.
//   - range over a map — iteration order is deliberately randomized and
//     reaches traces, hashes and event ordering the moment the body
//     does anything order-dependent. The sorted-keys idiom (a loop that
//     only collects keys for sorting) is recognized and allowed.
//
// Scope: every function in the simulation packages (internal/sim,
// internal/netem, internal/reno, internal/multiflow, internal/scenario),
// the trace capture they write to (internal/trace, whose spool runs the
// scope's one goroutine, under an ignore directive that says why it
// cannot reorder a trace) and the chaos generator/campaign package
// (internal/chaos, whose replayability contract is the same — a
// campaign must be reconstructable from (spec, seed); its HTTP
// subpackage internal/chaos/chaoshttp deliberately stays outside the
// scope because it drives real daemons with real clocks).
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "flags wall-clock, global math/rand, goroutines and unordered map iteration in deterministic scope",
	Run:  runDeterminism,
}

// deterministicPkgSuffixes are the import-path suffixes of the
// packages in scope.
var deterministicPkgSuffixes = []string{
	"internal/sim",
	"internal/netem",
	"internal/reno",
	"internal/multiflow",
	"internal/scenario",
	"internal/trace",
	"internal/chaos",
}

// deterministicPackage reports whether the package is in scope.
func deterministicPackage(path string) bool {
	for _, s := range deterministicPkgSuffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func runDeterminism(p *Pass) {
	if !deterministicPackage(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkDeterministicFunc(p, fd)
			}
		}
	}
}

func checkDeterministicFunc(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "deterministic %s: goroutine spawn; event ordering must come from the engine's (time, seq) heap, not the scheduler", name)
		case *ast.SelectorExpr:
			if obj := stdlibFuncUse(info, n); obj != nil {
				switch {
				case obj.Pkg().Path() == "time" && (obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Sleep"):
					p.Reportf(n.Pos(), "deterministic %s: time.%s reads the wall clock; use the engine's virtual clock (Engine.Now)", name, obj.Name())
				case obj.Pkg().Path() == "math/rand" || obj.Pkg().Path() == "math/rand/v2":
					p.Reportf(n.Pos(), "deterministic %s: global %s.%s draws from a shared, release-dependent stream; use a seeded sim.RNG", name, obj.Pkg().Name(), obj.Name())
				}
			}
		case *ast.RangeStmt:
			t, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := t.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if sortedKeysIdiom(info, n) {
				return true
			}
			p.Reportf(n.Pos(), "deterministic %s: map iteration order is randomized and can reach traces, hashes or event ordering; collect and sort the keys first", name)
		}
		return true
	})
}

// stdlibFuncUse resolves a selector to a package-level function or
// variable use with a named package, or nil.
func stdlibFuncUse(info *types.Info, sel *ast.SelectorExpr) types.Object {
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	// Only package-qualified references (pkg.Func), not field/method
	// selections on values.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return obj
		}
	}
	return nil
}

// sortedKeysIdiom recognizes the sanctioned order-independent map loop:
// a key-only range whose entire body appends the key to a slice,
//
//	for k := range m { keys = append(keys, k) }
//
// (the caller is expected to sort keys before using them — the loop
// itself extracts no order-dependent state), and the degenerate
// key-less counting loop `for range m`.
func sortedKeysIdiom(info *types.Info, r *ast.RangeStmt) bool {
	if r.Key == nil && r.Value == nil {
		return true // pure counting loop; no iteration-order-dependent state
	}
	if r.Value != nil {
		return false // touching values means order can matter
	}
	key, ok := r.Key.(*ast.Ident)
	if !ok || len(r.Body.List) != 1 {
		return false
	}
	asg, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, builtin := info.Uses[fn].(*types.Builtin); !builtin {
		return false
	}
	// The appended element must be exactly the range key.
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name && info.Uses[arg] == info.Defs[key]
}
