package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed source files, with comments.
	Files []*ast.File
	// Fset is the file set shared by every package of one Loader.
	Fset *token.FileSet
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// Loader discovers, parses and type-checks every package of a Go module
// using only the standard library: go/build for file selection, go/parser
// for syntax and go/types with the "source" importer for semantics. It
// deliberately avoids golang.org/x/tools/go/packages to honour the
// repository's zero-dependency constraint.
//
// Limitations (acceptable for a single self-contained module): external
// test packages (package foo_test) are never loaded, cgo is not supported,
// and only the default build configuration (host GOOS/GOARCH, no extra
// tags) is analyzed.
type Loader struct {
	// IncludeTests also loads in-package _test.go files.
	IncludeTests bool

	fset    *token.FileSet
	root    string // absolute module root (directory of go.mod)
	modPath string // module path from go.mod
	pkgs    map[string]*Package
	loading map[string]bool // import-cycle detection
	std     types.Importer  // stdlib fallback (source importer)
}

// NewLoader returns a Loader rooted at the module containing dir: it walks
// up from dir until it finds a go.mod and reads the module path from it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		std:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// skippedDir reports whether a directory is never descended into: VCS and
// tool metadata, testdata fixtures, generated results and vendored code.
func skippedDir(name string) bool {
	if name == "" {
		return true
	}
	if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return true
	}
	switch name {
	case "testdata", "vendor", "results":
		return true
	}
	return false
}

// Dirs walks the module and returns every directory containing
// buildable Go files for the analyzed configuration, sorted.
func (l *Loader) Dirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != l.root && skippedDir(d.Name()) {
			return filepath.SkipDir
		}
		// A directory go/build rejects is kept, so loading it reports
		// the error as that package's load error.
		if names, err := l.sourceFiles(path); err != nil || len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// Load loads the packages in dirs (nil or empty dirs means every package
// of the module) and returns them sorted by import path. Loading is
// lenient: a package that fails to parse or type-check becomes a
// LoadError, sorted by directory, and every other package still loads.
// The error is non-nil only when the module walk itself fails.
func (l *Loader) Load(dirs []string) ([]*Package, []LoadError, error) {
	if len(dirs) == 0 {
		all, err := l.Dirs()
		if err != nil {
			return nil, nil, err
		}
		dirs = all
	}
	var pkgs []*Package
	var loadErrs []LoadError
	seen := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			loadErrs = append(loadErrs, LoadError{Dir: l.relPath(dir), Error: err.Error()})
			continue
		}
		if !seen[pkg.Path] {
			seen[pkg.Path] = true
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	sort.Slice(loadErrs, func(i, j int) bool { return loadErrs[i].Dir < loadErrs[j].Dir })
	return pkgs, loadErrs, nil
}

// relPath renders a path relative to the module root with forward
// slashes, falling back to the input when it is not under the root.
func (l *Loader) relPath(path string) string {
	rel, err := filepath.Rel(l.root, path)
	if err != nil || rel == ".." || filepath.IsAbs(rel) || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}

// loadDir loads the package in a single directory (which must live inside
// the module).
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	path := l.modPath
	if rel != "." {
		path = l.modPath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path)
}

// importPathDir maps a module-internal import path to its directory.
func (l *Loader) importPathDir(path string) string {
	if path == l.modPath {
		return l.root
	}
	rel := strings.TrimPrefix(path, l.modPath+"/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// local reports whether an import path belongs to the module under
// analysis.
func (l *Loader) local(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// Import implements types.Importer, serving module-local packages from the
// loader and everything else from the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.local(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the module-local package with the given
// import path, memoizing the result.
func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.importPathDir(path)
	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Files: files,
		Fset:  l.fset,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// sourceFiles lists the .go files of dir that belong to the analyzed
// build, as go/build selects them for the host configuration: build
// constraints and GOOS/GOARCH filename suffixes applied, external test
// files (package foo_test) never, in-package test files only when
// IncludeTests is set. A directory without Go files yields none.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := bp.GoFiles
	if l.IncludeTests {
		names = append(names, bp.TestGoFiles...)
		sort.Strings(names)
	}
	return names, nil
}
