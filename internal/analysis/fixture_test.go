package analysis

// Fixture-based analyzer tests in the style of x/tools' analysistest: each
// testdata/src/<name> directory is parsed and type-checked as one package,
// the analyzer under test runs over it, and its diagnostics are compared
// against the fixture's expectations. An expectation is a trailing comment
//
//	// want `regexp` `another regexp`
//
// on the line where the diagnostic must appear; every diagnostic must match
// an expectation on its line and every expectation must be matched.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one fixture directory as a package
// with the given import path. Imports (including module-local ones such as
// invalidb/internal/metrics) resolve through the source importer, which
// works because `go test` runs with the package directory — inside the
// module — as the working directory.
func loadFixture(t *testing.T, dir, pkgPath string) *Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture dir %s has no .go files", dir)
	}
	imp := importer.ForCompiler(fset, "source", nil)
	typesPkg, info, err := TypeCheck(fset, imp, pkgPath, "", files)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: files, Types: typesPkg, Info: info}
}

type wantSpec struct {
	re      *regexp.Regexp
	text    string
	matched bool
}

var wantPattern = regexp.MustCompile("`([^`]*)`")

// collectWants indexes every `// want ...` comment by "file:line".
func collectWants(t *testing.T, pkg *Package) map[string][]*wantSpec {
	t.Helper()
	out := map[string][]*wantSpec{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				ms := wantPattern.FindAllStringSubmatch(c.Text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: want comment without any `regexp`: %s", key, c.Text)
				}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
					}
					out[key] = append(out[key], &wantSpec{re: re, text: m[1]})
				}
			}
		}
	}
	return out
}

// runFixture checks one analyzer against one fixture package.
func runFixture(t *testing.T, a *Analyzer, dir, pkgPath string) {
	t.Helper()
	pkg := loadFixture(t, dir, pkgPath)
	diags, err := RunPackage(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s over %s: %v", a.Name, dir, err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, specs := range wants {
		for _, w := range specs {
			if !w.matched {
				t.Errorf("missing diagnostic at %s matching `%s`", key, w.text)
			}
		}
	}
}

func TestHotpathAllocFixture(t *testing.T) {
	runFixture(t, HotpathAlloc, "testdata/src/hotpathalloc", "fixture/hotpathalloc")
}

func TestLockBlockFixture(t *testing.T) {
	runFixture(t, LockBlock, "testdata/src/lockblock", "fixture/lockblock")
}

// TestMetricNameIsTyped: a series name built at runtime does not compile
// against the metrics registry (DESIGN.md §9).
func TestMetricNameIsTyped(t *testing.T) {
	const src = `package p

import "invalidb/internal/metrics"

func f(r *metrics.Registry, s string) { r.Counter(s) }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = TypeCheck(fset, importer.ForCompiler(fset, "source", nil), "fixture/metricname", "", []*ast.File{f})
	want := "cannot use s (variable of type string) as metrics.name value"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("type-checking a runtime series name: err = %v, want %q", err, want)
	}
}

// The coarse-clock analyzer is package-sensitive: inside a coarse-clock
// package every time.Now is flagged; elsewhere only hot-path functions are.
// The same analyzer runs over two fixtures under the two package paths.
func TestCoarseClockPackageFixture(t *testing.T) {
	runFixture(t, CoarseClock, "testdata/src/coarseclock_core", "invalidb/internal/core")
}

func TestCoarseClockHotpathFixture(t *testing.T) {
	runFixture(t, CoarseClock, "testdata/src/coarseclock_hotpath", "fixture/coarseclock")
}

func TestEpochCaptureFixture(t *testing.T) {
	runFixture(t, EpochCapture, "testdata/src/epochcapture", "fixture/epochcapture")
}

func TestGoroLeakFixture(t *testing.T) {
	runFixture(t, GoroLeak, "testdata/src/goroleak", "fixture/goroleak")
}

// TestGoroLeakMainExempt pins the package-main exemption: the fixture's
// unguarded goroutine must produce no diagnostics.
func TestGoroLeakMainExempt(t *testing.T) {
	runFixture(t, GoroLeak, "testdata/src/goroleak_main", "fixture/goroleakmain")
}

// The interprocedural fixtures pin summary propagation: the violating
// operation sits two statically-resolved calls below the checked function,
// the diagnostic lands on the call site with the via-chain, and an
// //invalidb:allow at the operation's source keeps it out of callers.
func TestHotpathAllocInterprocFixture(t *testing.T) {
	runFixture(t, HotpathAlloc, "testdata/src/hotpathalloc_interproc", "fixture/hotpathallocinterproc")
}

func TestLockBlockInterprocFixture(t *testing.T) {
	runFixture(t, LockBlock, "testdata/src/lockblock_interproc", "fixture/lockblockinterproc")
}

// TestDirectiveFixture uses explicit expectations rather than want comments:
// the diagnostics land on directive comment lines, which cannot carry a
// second trailing comment.
func TestDirectiveFixture(t *testing.T) {
	pkg := loadFixture(t, "testdata/src/directive", "fixture/directive")
	diags, err := RunPackage(pkg, []*Analyzer{Directive})
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		`unknown directive //invalidb:frobnicate`,
		`//invalidb:hotpath must be part of a function's doc comment`,
		`//invalidb:allow needs an analyzer name and a reason`,
		`unknown analyzer "nosuchanalyzer"`,
		`//invalidb:allow hotpathalloc needs a reason`,
		`//invalidb:hotpath takes no arguments`,
	}
	matched := make([]bool, len(diags))
	for _, want := range wantSubstrings {
		found := false
		for i, d := range diags {
			if !matched[i] && strings.Contains(d.Message, want) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing directive diagnostic containing %q", want)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected directive diagnostic: %s", d)
		}
	}
}

// TestAllowDirectiveSuppression proves the //invalidb:allow escape hatch is
// load-bearing: the hotpathalloc fixture's hotAllowed function violates the
// rule under an allow directive. The raw analyzer (no suppression filter)
// reports exactly one more diagnostic than the filtered driver — remove the
// directive and the suite fails.
func TestAllowDirectiveSuppression(t *testing.T) {
	pkg := loadFixture(t, "testdata/src/hotpathalloc", "fixture/hotpathalloc")
	// Run the analyzer and its requirements with no allow directives in
	// effect, collecting the unfiltered diagnostics.
	var raw []Diagnostic
	results := map[*Analyzer]any{}
	facts := newFactStore()
	for _, a := range expandRequires([]*Analyzer{HotpathAlloc}) {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			PkgPath:     pkg.PkgPath,
			TypesInfo:   pkg.Info,
			ResultOf:    results,
			diagnostics: &raw,
			allowed:     map[allowKey]bool{},
			facts:       facts,
		}
		res, err := a.Run(pass)
		if err != nil {
			t.Fatal(err)
		}
		results[a] = res
	}
	filtered, err := RunPackage(pkg, []*Analyzer{HotpathAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(filtered)+1 {
		t.Fatalf("expected exactly one allow-suppressed diagnostic: raw=%d filtered=%d", len(raw), len(filtered))
	}
	suppressed := ""
	for _, d := range raw {
		kept := false
		for _, f := range filtered {
			if f == d {
				kept = true
				break
			}
		}
		if !kept {
			suppressed = d.Message
		}
	}
	if !strings.Contains(suppressed, "conversion allocates") {
		t.Errorf("suppressed the wrong diagnostic: %q", suppressed)
	}
}

// TestRepoSuiteClean runs the full suite over the real module — the same
// invocation as `make lint` — and requires zero findings. This is the
// regression test for every annotation and allow directive in the tree.
func TestRepoSuiteClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow")
	}
	diags, err := Run([]string{"invalidb/..."}, Suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}
