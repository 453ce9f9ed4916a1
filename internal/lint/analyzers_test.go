package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture module: one package of known-bad code per analyzer, plus
// one exercising the ignore directive. Everything is written to a temp
// directory and loaded through the real Loader so the tests cover the
// whole pipeline (parse, type-check, analyze, filter), not just the
// Run functions.
var fixtureFiles = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",

	"floatbad/floatbad.go": `package floatbad

func cmp(a, b float64) bool { return a == b } // want floatcmp
func neq(a, b float64) bool { return a != b } // want floatcmp

func self(x float64) bool { return x != x } // want floatcmp (IsNaN hint)

func sentinel(x float64) bool { return x == 0 }   // allowed: constant operand
func delta(a, b float64) bool { return a-b == 0 } // allowed: constant operand

func conv(a float64, b int) bool { return a == float64(b) } // want floatcmp

func sw(x, y float64) bool {
	switch x {
	case y: // want floatcmp: non-constant case
		return true
	case 1: // allowed: constant case
		return false
	}
	return false
}
`,

	"errbad/errbad.go": `package errbad

import (
	"fmt"
	"os"
	"strings"
)

func fails() error { return nil }

func drop() {
	fails()       // want errdrop
	defer fails() // want errdrop
	go fails()    // want errdrop

	_ = fails()       // allowed: explicit discard
	fmt.Println("ok") // allowed: stdout convenience printer

	var sb strings.Builder
	fmt.Fprintf(&sb, "x") // allowed: infallible writer
	sb.WriteString("y")   // allowed: infallible buffer method

	fmt.Fprintln(os.Stderr, "boom") // want errdrop
}
`,

	"panicbad/panicbad.go": `package panicbad

import "fmt"

func bad(n int) {
	if n == 0 {
		panic("missing prefix") // want panicstyle
	}
	panic(fmt.Sprintf("also missing %d", n)) // want panicstyle
}

func good(n int) {
	panic("panicbad: n out of range " + fmt.Sprint(n)) // allowed
}

func dynamic(err error) {
	panic(err) // allowed: head unknown at compile time
}
`,

	"ctorbad/ctorbad.go": `package ctorbad

type Thing struct{ a, b, c, d, e, f float64 }

type Option func(*Thing)

func NewThing(a, b, c, d, e, f float64) *Thing { return &Thing{a, b, c, d, e, f} } // want ctorparams

func NewSplit(a, b float64, c, d int, e string, f bool) *Thing { return nil } // want ctorparams

func NewOK(a, b, c, d, e float64) *Thing { return nil } // allowed: exactly 5

func NewWithOpts(a float64, opts ...Option) *Thing { return nil } // allowed: variadic tail uncounted

func New(a, b, c, d, e, f int) *Thing { return nil } // want ctorparams (bare New)

func newThing(a, b, c, d, e, f float64) *Thing { return nil } // allowed: unexported

func Newton(a, b, c, d, e, f float64) float64 { return a } // allowed: not the New idiom

type Builder struct{}

func (Builder) NewThing(a, b, c, d, e, f float64) *Thing { return nil } // allowed: method
`,

	"hotbad/hotbad.go": `package hotbad

type S struct {
	buf []int
	cb  func()
}

var global int

//pftk:hotpath
func (s *S) Push(v int) {
	s.buf = append(s.buf, v) // want hotalloc (builtin append)
}

//pftk:hotpath
func (s *S) Arm(v int) {
	s.cb = func() { s.Push(v) } // want hotalloc (captures s or v)
}

//pftk:hotpath
func Static() {
	f := func() { global++ } // allowed: only a package-level var, funcval stays static
	f()
}

//pftk:hotpath
func (s *S) Guarded(v int) {
	//pftklint:ignore hotalloc fixture: growth is amortized
	s.buf = append(s.buf, v)
}

func cold(s *S, v int) {
	s.buf = append(s.buf, v) // allowed: no hotpath directive
	s.cb = func() { _ = v }  // allowed: no hotpath directive
}

// Append is a method, not the builtin: calling it on a hot path is fine.
func (s *S) Append(v int) { s.buf = append(s.buf, v) }

//pftk:hotpath
func method(s *S, v int) {
	s.Append(v) // allowed: method named append is not the builtin
}
`,

	// Package-scope determinism: the fixture module's internal/sim
	// matches the deterministic package suffixes, so every function is
	// in scope without annotations.
	"internal/sim/determbad.go": `package sim

import (
	"math/rand"
	"sort"
	"time"
)

type counts map[string]int

func clock() int64 { return time.Now().UnixNano() } // want determinism (time.Now)

func draw() float64 { return rand.Float64() } // want determinism (global math/rand)

func spawn(ch chan int) {
	go func() { ch <- 1 }() // want determinism (goroutine)
}

func leak(m counts) int {
	s := 0
	for _, v := range m { // want determinism (map range reaches values)
		s += v
	}
	return s
}

func sortedKeys(m counts) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // allowed: sorted-keys idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func count(m counts) int {
	n := 0
	for range m { // allowed: pure counting loop
		n++
	}
	return n
}
`,

	// Function-scope determinism via the //pftk:deterministic directive,
	// outside the always-on packages.
	"determfn/determfn.go": `package determfn

import "time"

//pftk:deterministic
func replay() int64 { return time.Now().UnixNano() } // want determinism

func wall() int64 { return time.Now().UnixNano() } // allowed: out of scope
`,

	"guardbad/guardbad.go": `package guardbad

import "sync"

type Store struct {
	mu sync.RWMutex
	//pftk:guardedby mu
	n int
}

func (s *Store) Bad() int { return s.n } // want guardedby (no lock)

func (s *Store) Good() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n // allowed: dominating Lock
}

func (s *Store) ReadOK() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n // allowed: RLock licenses reads
}

func (s *Store) WriteUnderRLock() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.n++ // want guardedby (write under RLock)
}

// locked relies on its callers holding mu.
//
//pftk:locked(mu)
func (s *Store) locked() int { return s.n } // allowed: caller contract

func fresh() *Store {
	st := &Store{}
	st.n = 1 // allowed: local, not yet published
	return st
}

func (s *Store) branch(b bool) int {
	if b {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	return s.n // want guardedby (lock in a branch does not dominate)
}

func escape(s *Store) func() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() int { return s.n } // want guardedby (closure outlives the lock)
}

var (
	gmu sync.Mutex
	//pftk:guardedby gmu
	global int
)

func pkgBad() int { return global } // want guardedby (package var)

func pkgGood() int {
	gmu.Lock()
	defer gmu.Unlock()
	return global // allowed
}
`,

	// Generic guardedby: selecting a field through an instantiated
	// generic struct yields a substituted Var distinct from the declared
	// object; the analyzer must normalize both the access and the
	// x.mu.Lock() receiver back to their origins or generic caches go
	// unchecked entirely.
	"guardgen/guardgen.go": `package guardgen

import "sync"

type Shard[V any] struct {
	mu sync.Mutex
	//pftk:guardedby mu
	items map[string]V
}

func (s *Shard[V]) Bad(k string) V { return s.items[k] } // want guardedby (generic receiver)

func (s *Shard[V]) Good(k string) V {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.items[k] // allowed: dominating Lock through the same origin
}

//pftk:locked(mu)
func (s *Shard[V]) locked(k string, v V) { s.items[k] = v } // allowed: caller contract

func BadInstantiated(s *Shard[int]) int { return s.items["x"] } // want guardedby (concrete instantiation)
`,

	// Cross-package guardedby: the field is annotated in guardx/a, the
	// accesses live in guardx/b — only per-package facts shared across
	// the run make this checkable.
	"guardx/a/a.go": `package a

import "sync"

type Shared struct {
	Mu sync.Mutex
	//pftk:guardedby Mu
	N int
}
`,

	"guardx/b/b.go": `package b

import "fixture/guardx/a"

func Bad(s *a.Shared) int { return s.N } // want guardedby

func Good(s *a.Shared) int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.N // allowed
}
`,

	"ignorebad/ignorebad.go": `package ignorebad

func live(a, b float64) bool {
	return a == b //pftklint:ignore floatcmp fixture: live suppression, audit-clean
}

func stale(a, b float64) bool {
	//pftklint:ignore floatcmp nothing below trips floatcmp any more
	return a < b
}

func unjustified(a, b float64) bool {
	//pftklint:ignore floatcmp
	return a == b
}

func unknown(a, b float64) bool {
	//pftklint:ignore nosuch because of a typo
	return a < b
}

func nameless() {
	//pftklint:ignore
	_ = 0
}

func otherRun() {
	//pftklint:ignore hotalloc justified, but hotalloc is not part of this run
	_ = 0
}
`,

	"directivebad/directivebad.go": `package directivebad

import "sync"

//pftk:hotpth
func typo() {} // want directive (unknown name)

//pftk:deterministic
type T struct{} // want directive (misplaced: not a function)

type G struct {
	mu sync.Mutex
	//pftk:guardedby
	a int
	//pftk:guardedby missing
	b int
	//pftk:guardedby mu
	c int // allowed
}

//pftk:locked
func noArg() {} // want directive (locked needs a mutex)

//pftklint:nonsense
func badVerb() {} // want directive (unknown pftklint verb)
`,

	"jsontagbad/jsontagbad.go": `package jsontagbad

type Mixed struct {
	A int ` + "`json:\"a\"`" + `
	B int // want jsontag (exported, untagged, in a tagged struct)
	c int // allowed: unexported
}

type Plain struct { // allowed: no json tags anywhere
	A int
	B int
}

type Inlined struct {
	Plain     // allowed: embedded fields inline on purpose
	A     int ` + "`json:\"a\"`" + `
}
`,

	"ignored/ignored.go": `package ignored

func sameLine(a, b float64) bool {
	return a == b //pftklint:ignore floatcmp fixture: suppressed on purpose
}

func lineAbove(a, b float64) bool {
	//pftklint:ignore floatcmp fixture: suppressed from the line above
	return a != b
}

func noJustification(a, b float64) bool {
	return a == b //pftklint:ignore floatcmp
}

func wrongAnalyzer(a, b float64) bool {
	return a == b //pftklint:ignore errdrop fixture: names the wrong analyzer
}
`,

	// A miniature tracez so the spanend fixture type-checks without
	// importing the real module: the analyzer matches by package name
	// and the Span type, not the import path.
	"tracez/tracez.go": `package tracez

type Tracer struct{}

type Span struct{ tr *Tracer }

func (t *Tracer) StartRoot(name string) Span               { return Span{tr: t} }
func (t *Tracer) StartRootAt(name string, at float64) Span { return Span{tr: t} }
func (sp *Span) StartChild(name string) Span               { return Span{tr: sp.tr} }
func (sp *Span) SetAttr(k, v string)                       {}
func (sp *Span) End()                                      {}
`,

	"spanbad/spanbad.go": `package spanbad

import "fixture/tracez"

func discarded(tr *tracez.Tracer) {
	tr.StartRoot("x") // want spanend (result discarded)
}

func blanked(tr *tracez.Tracer) {
	_ = tr.StartRoot("x") // want spanend (assigned to _)
}

func leaked(tr *tracez.Tracer) {
	sp := tr.StartRoot("x") // want spanend (never ended)
	sp.SetAttr("k", "v")
}

func missedReturn(tr *tracez.Tracer, fail bool) error {
	sp := tr.StartRoot("x")
	if fail {
		return nil // want spanend (return before End)
	}
	sp.End()
	return nil
}

func deferred(tr *tracez.Tracer, fail bool) error { // allowed: defer covers all paths
	sp := tr.StartRoot("x")
	defer sp.End()
	if fail {
		return nil
	}
	return nil
}

func straightLine(tr *tracez.Tracer) { // allowed: End before fall-through
	sp := tr.StartRoot("x")
	sp.SetAttr("k", "v")
	sp.End()
}

func transferred(tr *tracez.Tracer) tracez.Span { // allowed: caller owns it
	sp := tr.StartRoot("x")
	return sp
}

func captured(tr *tracez.Tracer) func() { // allowed: closure owns it
	sp := tr.StartRoot("x")
	return func() { sp.End() }
}

func children(tr *tracez.Tracer) { // allowed: child start is receiver use
	sp := tr.StartRoot("x")
	defer sp.End()
	child := sp.StartChild("y")
	child.End()
}
`,
}

var (
	fixturePkgsMemo map[string]*Package
	fixtureErrMemo  error
)

// fixturePkgs loads the fixture module once per test binary and returns
// its packages keyed by package name.
func fixturePkgs(t *testing.T) map[string]*Package {
	t.Helper()
	if fixturePkgsMemo == nil && fixtureErrMemo == nil {
		fixturePkgsMemo, fixtureErrMemo = loadFixtureModule()
	}
	if fixtureErrMemo != nil {
		t.Fatalf("loading fixture module: %v", fixtureErrMemo)
	}
	return fixturePkgsMemo
}

func loadFixtureModule() (map[string]*Package, error) {
	dir, err := os.MkdirTemp("", "pftklint-fixture-*")
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	for name, src := range fixtureFiles {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return nil, err
		}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, loadErrs, err := loader.Load(nil)
	if err != nil {
		return nil, err
	}
	if len(loadErrs) > 0 {
		return nil, fmt.Errorf("%s: %s", loadErrs[0].Dir, loadErrs[0].Error)
	}
	byName := map[string]*Package{}
	for _, p := range pkgs {
		byName[p.Types.Name()] = p
	}
	return byName, nil
}

// expectation is one diagnostic the fixture is known to contain.
type expectation struct {
	line   int
	substr string // must appear in the message
}

// checkDiags asserts the analyzer produced exactly the expected findings
// (by line) and that each message carries its expected fragment.
func checkDiags(t *testing.T, got []Diagnostic, want []expectation) {
	t.Helper()
	byLine := map[int]Diagnostic{}
	for _, d := range got {
		if prev, dup := byLine[d.Pos.Line]; dup {
			t.Errorf("two findings on line %d: %q and %q", d.Pos.Line, prev.Message, d.Message)
		}
		byLine[d.Pos.Line] = d
	}
	for _, w := range want {
		d, ok := byLine[w.line]
		if !ok {
			t.Errorf("missing finding on line %d (want message containing %q)", w.line, w.substr)
			continue
		}
		if !strings.Contains(d.Message, w.substr) {
			t.Errorf("line %d: message %q does not contain %q", w.line, d.Message, w.substr)
		}
		delete(byLine, w.line)
	}
	for line, d := range byLine {
		t.Errorf("unexpected finding on line %d: %s", line, d.Message)
	}
}

func TestFloatCmpFixture(t *testing.T) {
	pkg := fixturePkgs(t)["floatbad"]
	got := Run([]*Package{pkg}, []*Analyzer{FloatCmpAnalyzer})
	checkDiags(t, got, []expectation{
		{3, "compared with =="},
		{4, "compared with !="},
		{6, "math.IsNaN"},
		{11, "compared with =="},
		{15, "non-constant case y"},
	})
}

func TestErrDropFixture(t *testing.T) {
	pkg := fixturePkgs(t)["errbad"]
	got := Run([]*Package{pkg}, []*Analyzer{ErrDropAnalyzer})
	checkDiags(t, got, []expectation{
		{12, "fails returns an error"},
		{13, "fails returns an error"},
		{14, "fails returns an error"},
		{23, "fmt.Fprintln returns an error"},
	})
}

func TestPanicStyleFixture(t *testing.T) {
	pkg := fixturePkgs(t)["panicbad"]
	got := Run([]*Package{pkg}, []*Analyzer{PanicStyleAnalyzer})
	checkDiags(t, got, []expectation{
		{7, `must start with "panicbad: "`},
		{9, `must start with "panicbad: "`},
	})
}

func TestCtorParamsFixture(t *testing.T) {
	pkg := fixturePkgs(t)["ctorbad"]
	got := Run([]*Package{pkg}, []*Analyzer{CtorParamsAnalyzer})
	checkDiags(t, got, []expectation{
		{7, "NewThing takes 6 positional parameters"},
		{9, "NewSplit takes 6 positional parameters"},
		{15, "New takes 6 positional parameters"},
	})
}

func TestHotAllocFixture(t *testing.T) {
	pkg := fixturePkgs(t)["hotbad"]
	got := Run([]*Package{pkg}, []*Analyzer{HotAllocAnalyzer})
	// Line numbers in hotbad.go: the Push append on 12, the capturing
	// literal in Arm on 17. The guarded append (ignore directive), the
	// static literal, the cold function and the append-named method must
	// all stay silent.
	checkDiags(t, got, []expectation{
		{12, "append may grow its backing array"},
		{17, "function literal captures"},
	})
}

func TestIgnoreDirective(t *testing.T) {
	pkg := fixturePkgs(t)["ignored"]
	got := Run([]*Package{pkg}, []*Analyzer{FloatCmpAnalyzer})
	// Only the directive without a justification and the one naming the
	// wrong analyzer fail to suppress.
	checkDiags(t, got, []expectation{
		{13, "compared with =="},
		{17, "compared with =="},
	})
}

func TestDeterminismFixturePackageScope(t *testing.T) {
	pkg := fixturePkgs(t)["sim"]
	got := Run([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer})
	checkDiags(t, got, []expectation{
		{11, "time.Now reads the wall clock"},
		{13, "global rand.Float64"},
		{16, "goroutine spawn"},
		{21, "map iteration order is randomized"},
	})
}

func TestDeterminismFixtureAnnotatedFunc(t *testing.T) {
	pkg := fixturePkgs(t)["determfn"]
	got := Run([]*Package{pkg}, []*Analyzer{DeterminismAnalyzer})
	// Only the //pftk:deterministic function is in scope; wall() uses
	// time.Now legally.
	checkDiags(t, got, []expectation{
		{6, "time.Now reads the wall clock"},
	})
}

func TestGuardedByFixture(t *testing.T) {
	pkg := fixturePkgs(t)["guardbad"]
	got := Run([]*Package{pkg}, []*Analyzer{GuardedByAnalyzer})
	checkDiags(t, got, []expectation{
		{11, "n is guarded by mu but accessed without holding it"},
		{28, "write to n (guarded by mu) under RLock"},
		{47, "n is guarded by mu but accessed without holding it"},
		{53, "n is guarded by mu but accessed without holding it"},
		{62, "global is guarded by gmu but accessed without holding it"},
	})
}

func TestGuardedByGenericFields(t *testing.T) {
	pkg := fixturePkgs(t)["guardgen"]
	got := Run([]*Package{pkg}, []*Analyzer{GuardedByAnalyzer})
	checkDiags(t, got, []expectation{
		{11, "items is guarded by mu but accessed without holding it"},
		{22, "items is guarded by mu but accessed without holding it"},
	})
}

func TestGuardedByCrossPackage(t *testing.T) {
	pkgs := fixturePkgs(t)
	// The field is annotated in guardx/a; the unguarded access lives in
	// guardx/b. The shared FactTable is what makes this checkable.
	got := Run([]*Package{pkgs["a"], pkgs["b"]}, []*Analyzer{GuardedByAnalyzer})
	checkDiags(t, got, []expectation{
		{5, "N is guarded by Mu but accessed without holding it"},
	})
}

func TestIgnoreAuditFixture(t *testing.T) {
	pkg := fixturePkgs(t)["ignorebad"]
	got := Run([]*Package{pkg}, []*Analyzer{FloatCmpAnalyzer, IgnoreAuditAnalyzer})
	checkDiags(t, got, []expectation{
		{8, "stale ignore: no floatcmp finding is suppressed here"},
		{13, "no justification"},
		{14, "compared with =="}, // unjustified directive does not suppress
		{18, `unknown analyzer "nosuch"`},
		{23, "names no analyzer"},
		// line 28 (hotalloc ignore) is NOT judged: hotalloc is not in
		// this run, so its staleness is undecidable.
	})
}

func TestIgnoreAuditRunSetGating(t *testing.T) {
	pkg := fixturePkgs(t)["ignorebad"]
	// With hotalloc in the run set, its unused ignore becomes stale.
	got := Run([]*Package{pkg}, []*Analyzer{FloatCmpAnalyzer, HotAllocAnalyzer, IgnoreAuditAnalyzer})
	var hot []Diagnostic
	for _, d := range got {
		if d.Pos.Line == 28 {
			hot = append(hot, d)
		}
	}
	if len(hot) != 1 || !strings.Contains(hot[0].Message, "stale ignore: no hotalloc finding") {
		t.Errorf("want one stale-hotalloc finding on line 28, got %v", hot)
	}
}

func TestDirectiveFixture(t *testing.T) {
	pkg := fixturePkgs(t)["directivebad"]
	got := Run([]*Package{pkg}, []*Analyzer{DirectiveAnalyzer})
	checkDiags(t, got, []expectation{
		{5, `unknown //pftk: directive "hotpth"`},
		{8, "must be in a function declaration's doc comment"},
		{13, "needs the guarding mutex"},
		{16, `no sibling field or package variable "missing" exists`},
		{21, "needs the held mutex"},
		{24, `unknown //pftklint: verb "nonsense"`},
	})
}

func TestJSONTagFixture(t *testing.T) {
	pkg := fixturePkgs(t)["jsontagbad"]
	got := Run([]*Package{pkg}, []*Analyzer{JSONTagAnalyzer})
	checkDiags(t, got, []expectation{
		{5, "exported field B has no json tag"},
	})
}

func TestSpanEndFixture(t *testing.T) {
	pkg := fixturePkgs(t)["spanbad"]
	got := Run([]*Package{pkg}, []*Analyzer{SpanEndAnalyzer})
	checkDiags(t, got, []expectation{
		{6, "result of tr.StartRoot is discarded"},
		{10, "assigned to _"},
		{14, "started but never ended"},
		{21, "may not be ended on this return path"},
	})
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text      string
		ok        bool // a directive at all
		names     []string
		justified bool // honoured by the filter
	}{
		{"//pftklint:ignore floatcmp because reasons", true, []string{"floatcmp"}, true},
		{"//pftklint:ignore floatcmp,errdrop shared justification", true, []string{"floatcmp", "errdrop"}, true},
		{"//pftklint:ignore floatcmp", true, []string{"floatcmp"}, false}, // no justification: not honoured
		{"//pftklint:ignore", true, nil, false},                           // no analyzer list
		{"// pftklint:ignore floatcmp why", false, nil, false},
		{"// ordinary comment", false, nil, false},
	}
	for _, c := range cases {
		names, justified, ok := parseIgnore(c.text)
		if ok != c.ok || justified != c.justified || fmt.Sprint(names) != fmt.Sprint(c.names) {
			t.Errorf("parseIgnore(%q) = %v, %v, %v; want %v, %v, %v", c.text, names, justified, ok, c.names, c.justified, c.ok)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName of an unknown name must be nil")
	}
}
