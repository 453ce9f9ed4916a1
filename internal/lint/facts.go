package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The //pftk: annotations guardedby reads. They are machine-readable
// comments that attach a lock discipline to declarations; hotalloc reads
// its own //pftk:hotpath marker.
const (
	// DirGuardedBy marks a struct field or package-level variable that
	// may only be accessed while the named mutex is held. Form:
	// //pftk:guardedby mu
	DirGuardedBy = "guardedby"
	// DirLocked marks a function whose callers are required to hold the
	// named mutex, exempting its guarded-field accesses. Form:
	// //pftk:locked(mu)
	DirLocked = "locked"
)

// directivePrefix introduces every annotation comment.
const directivePrefix = "//pftk:"

// parseDirective splits a //pftk: comment into its name and argument.
// Both "//pftk:guardedby mu" (space form) and "//pftk:locked(mu)"
// (parenthesized form) are recognized; ok is false for ordinary
// comments. The ignore directive ("//pftklint:ignore") is a different
// namespace and not handled here.
func parseDirective(text string) (name, arg string, ok bool) {
	rest, found := strings.CutPrefix(text, directivePrefix)
	if !found {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	if i := strings.IndexByte(rest, '('); i >= 0 {
		name = rest[:i]
		arg = rest[i+1:]
		arg, _ = strings.CutSuffix(strings.TrimSpace(arg), ")")
		return name, strings.TrimSpace(arg), true
	}
	name, arg, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(arg), true
}

// GuardFact records that one object (a struct field or package-level
// variable) is protected by a named mutex.
type GuardFact struct {
	// Guard is the annotated mutex name (e.g. "mu").
	Guard string
	// GuardObj is the resolved guard object: the sibling mutex field for
	// struct fields, or the package-level mutex variable for guarded
	// package variables. Nil when the name does not resolve, which makes
	// every access a finding.
	GuardObj types.Object
}

// PackageFacts are the per-package annotation tables guardedby
// consumes. The driver computes facts for every loaded package
// before any analyzer runs, so a pass over package B can look up the
// guarded fields package A exported.
type PackageFacts struct {
	// Locked maps a function to the mutex names its //pftk:locked(...)
	// annotations declare held on entry.
	Locked map[types.Object][]string
	// Guarded maps a field or package-level variable to its
	// //pftk:guardedby annotation.
	Guarded map[types.Object]GuardFact
}

// FactTable indexes PackageFacts by type-checker package identity, so an
// analyzer holding a types.Object from any loaded package can reach its
// annotations.
type FactTable struct {
	byPkg map[*types.Package]*PackageFacts
}

// NewFactTable computes facts for every package.
func NewFactTable(pkgs []*Package) *FactTable {
	t := &FactTable{byPkg: make(map[*types.Package]*PackageFacts, len(pkgs))}
	for _, pkg := range pkgs {
		t.byPkg[pkg.Types] = computeFacts(pkg)
	}
	return t
}

// For returns the facts of one package, or nil when the package was not
// part of the analyzed set (stdlib, failed loads).
func (t *FactTable) For(p *types.Package) *PackageFacts {
	if t == nil {
		return nil
	}
	return t.byPkg[p]
}

// GuardFor resolves the guardedby annotation of an object defined in any
// analyzed package. Fields of generic structs are normalized to their
// origin: a selection through lruShard[V] (or any instantiation) yields
// a substituted field Var distinct from the one the declaration defines,
// and the facts table is keyed by the declared object.
func (t *FactTable) GuardFor(obj types.Object) (GuardFact, bool) {
	if t == nil || obj == nil || obj.Pkg() == nil {
		return GuardFact{}, false
	}
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin()
	}
	f := t.For(obj.Pkg())
	if f == nil {
		return GuardFact{}, false
	}
	g, ok := f.Guarded[obj]
	return g, ok
}

// LockedGuards returns the mutex names a function's //pftk:locked
// annotations declare held.
func (t *FactTable) LockedGuards(fn types.Object) []string {
	if t == nil || fn == nil || fn.Pkg() == nil {
		return nil
	}
	f := t.For(fn.Pkg())
	if f == nil {
		return nil
	}
	return f.Locked[fn]
}

// computeFacts extracts the annotation tables from one package's syntax.
func computeFacts(pkg *Package) *PackageFacts {
	f := &PackageFacts{
		Locked:  map[types.Object][]string{},
		Guarded: map[types.Object]GuardFact{},
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				factsFromFuncDoc(pkg, f, d)
			case *ast.GenDecl:
				switch d.Tok {
				case token.TYPE:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						if st, ok := ts.Type.(*ast.StructType); ok {
							factsFromStruct(pkg, f, st)
						}
					}
				case token.VAR:
					factsFromVarDecl(pkg, f, d)
				}
			}
		}
	}
	return f
}

// factsFromFuncDoc records locked annotations from a function's doc
// comment.
func factsFromFuncDoc(pkg *Package, f *PackageFacts, fd *ast.FuncDecl) {
	if fd.Doc == nil {
		return
	}
	obj := pkg.Info.Defs[fd.Name]
	if obj == nil {
		return
	}
	for _, c := range fd.Doc.List {
		if name, arg, ok := parseDirective(c.Text); ok && name == DirLocked && arg != "" {
			f.Locked[obj] = append(f.Locked[obj], arg)
		}
	}
}

// factsFromStruct records guardedby annotations on struct fields. The
// guard must be a sibling field of the same struct; resolution failures
// leave GuardObj nil.
func factsFromStruct(pkg *Package, f *PackageFacts, st *ast.StructType) {
	// Index sibling field objects by name for guard resolution.
	byName := map[string]types.Object{}
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if obj := pkg.Info.Defs[id]; obj != nil {
				byName[id.Name] = obj
			}
		}
	}
	for _, field := range st.Fields.List {
		guard := directiveArg(field.Doc, DirGuardedBy)
		if guard == "" {
			guard = directiveArg(field.Comment, DirGuardedBy)
		}
		if guard == "" {
			continue
		}
		for _, id := range field.Names {
			obj := pkg.Info.Defs[id]
			if obj == nil {
				continue
			}
			f.Guarded[obj] = GuardFact{Guard: guard, GuardObj: byName[guard]}
		}
	}
	// Nested struct types (struct-typed fields with their own guarded
	// members) are handled when their named type declaration is walked;
	// anonymous nested structs with directives are rare enough to skip.
}

// factsFromVarDecl records guardedby annotations on package-level
// variables; the guard must be another package-level variable.
func factsFromVarDecl(pkg *Package, f *PackageFacts, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		guard := directiveArg(vs.Doc, DirGuardedBy)
		if guard == "" {
			guard = directiveArg(vs.Comment, DirGuardedBy)
		}
		if guard == "" && len(gd.Specs) == 1 {
			guard = directiveArg(gd.Doc, DirGuardedBy)
		}
		if guard == "" {
			continue
		}
		var guardObj types.Object
		if pkg.Types != nil {
			guardObj = pkg.Types.Scope().Lookup(guard)
		}
		for _, id := range vs.Names {
			obj := pkg.Info.Defs[id]
			if obj == nil {
				continue
			}
			f.Guarded[obj] = GuardFact{Guard: guard, GuardObj: guardObj}
		}
	}
}

// directiveArg returns the argument of the named directive inside a
// comment group, or "".
func directiveArg(cg *ast.CommentGroup, want string) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		name, arg, ok := parseDirective(c.Text)
		if ok && name == want {
			return arg
		}
	}
	return ""
}
