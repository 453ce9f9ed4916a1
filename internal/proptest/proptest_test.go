package proptest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestSameSeedSameInputs pins the point of the fixed seed: two runs of
// one check draw identical inputs.
func TestSameSeedSameInputs(t *testing.T) {
	draw := func() []any {
		var got []any
		f := func(a int64, b float64, s []uint8) bool {
			got = append(got, a, b, s)
			return true
		}
		if err := quick.Check(f, Config(20)); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first, second := draw(), draw()
	if len(first) != 60 {
		t.Fatalf("drew %d values, want 60", len(first))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two runs of the same check drew different inputs")
	}
}

// TestEveryQuickCheckIsSeeded parses every _test.go file of the module
// and fails on a quick.Check or quick.CheckEqual call whose config is
// neither proptest.Config(...) nor a composite literal setting Rand: a
// nil config, or one without a Rand, draws from a time-seeded
// generator, so a counterexample found once may never come back.
func TestEveryQuickCheckIsSeeded(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		quickName := importName(f, "testing/quick")
		if quickName == "" {
			return nil
		}
		seeded := func(e ast.Expr) bool { return setsRand(e) || callsConfig(f, e) }
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != quickName {
				return true
			}
			cfgArg := map[string]int{"Check": 1, "CheckEqual": 2}
			i, ok := cfgArg[sel.Sel.Name]
			if !ok {
				return true
			}
			checked++
			if i >= len(call.Args) || !seeded(call.Args[i]) {
				t.Errorf("%s: %s.%s without a seeded config: call proptest.Check or set Rand in a &quick.Config literal",
					fset.Position(call.Pos()), quickName, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d direct quick.Check/CheckEqual calls checked", checked)
}

// setsRand reports whether e is &quick.Config{...} (or the bare
// literal) with a Rand field.
func setsRand(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Rand" {
				return true
			}
		}
	}
	return false
}

// callsConfig reports whether e calls this package's Config, by its
// import name in f or, inside this package, unqualified.
func callsConfig(f *ast.File, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return f.Name.Name == "proptest" && fn.Name == "Config"
	case *ast.SelectorExpr:
		x, ok := fn.X.(*ast.Ident)
		return ok && x.Name == importName(f, "pftk/internal/proptest") && fn.Sel.Name == "Config"
	}
	return false
}

// importName returns the name f uses for the import path, or "" when f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
