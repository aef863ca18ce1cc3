package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Run loads the packages matching patterns and applies every analyzer,
// returning the surviving diagnostics sorted by position. Packages are
// analyzed in dependency order so facts exported by a dependency's pass
// (function summaries, below) are visible to its dependents; within one
// package, analyzers run after the analyzers they Require. Diagnostics on
// lines carrying (or directly below) an //invalidb:allow directive for the
// reporting analyzer are suppressed.
func Run(patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(patterns)
	if err != nil {
		return nil, err
	}
	facts := newFactStore()
	var all []Diagnostic
	for _, pkg := range pkgs {
		diags, err := runPackage(pkg, analyzers, facts)
		if err != nil {
			return nil, err
		}
		all = append(all, diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// RunPackage applies the analyzers to one loaded package in isolation (no
// cross-package facts) and filters the diagnostics through the package's
// //invalidb:allow directives. The fixture tests use it.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runPackage(pkg, analyzers, newFactStore())
}

// expandRequires returns the analyzers plus their transitive requirements
// in a valid execution order (requirements first).
func expandRequires(analyzers []*Analyzer) []*Analyzer {
	var out []*Analyzer
	seen := map[*Analyzer]bool{}
	var visit func(a *Analyzer)
	visit = func(a *Analyzer) {
		if seen[a] {
			return
		}
		seen[a] = true
		for _, req := range a.Requires {
			visit(req)
		}
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

func runPackage(pkg *Package, analyzers []*Analyzer, facts *factStore) ([]Diagnostic, error) {
	allowed := collectAllows(pkg)
	requested := map[*Analyzer]bool{}
	for _, a := range analyzers {
		requested[a] = true
	}
	results := map[*Analyzer]any{}
	var diags []Diagnostic
	for _, a := range expandRequires(analyzers) {
		// Requirement-only analyzers (call graph, summaries) report into a
		// discard list: they exist to produce results and facts, and any
		// diagnostics they might emit were not asked for.
		sink := &diags
		if !requested[a] {
			sink = &[]Diagnostic{}
		}
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			PkgPath:     pkg.PkgPath,
			TypesInfo:   pkg.Info,
			ResultOf:    results,
			diagnostics: sink,
			allowed:     allowed,
			facts:       facts,
		}
		res, err := a.Run(pass)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.PkgPath, a.Name, err)
		}
		results[a] = res
	}
	kept := diags[:0]
	for _, d := range diags {
		if !allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// allowKey identifies one suppressed (file, line, analyzer) site.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// collectAllows indexes every //invalidb:allow directive in the package.
// A directive on line L suppresses the named analyzer on L (same-line
// trailing comment) and on L+1 (standalone comment above the construct).
func collectAllows(pkg *Package) map[allowKey]bool {
	out := map[allowKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := parseDirective(c.Text)
				if !ok || name != directiveAllow {
					continue
				}
				fields := strings.Fields(args)
				if len(fields) == 0 {
					continue // the directive analyzer reports this
				}
				pos := pkg.Fset.Position(c.Pos())
				out[allowKey{pos.Filename, pos.Line, fields[0]}] = true
				out[allowKey{pos.Filename, pos.Line + 1, fields[0]}] = true
			}
		}
	}
	return out
}

// inspectFiles walks every file in the pass with fn (pre-order;
// returning false prunes the subtree).
func inspectFiles(files []*ast.File, fn func(ast.Node) bool) {
	for _, f := range files {
		ast.Inspect(f, fn)
	}
}
