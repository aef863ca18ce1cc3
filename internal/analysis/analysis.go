// Package analysis is InvaliDB's custom static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// programming model (Analyzer, Pass, diagnostics) plus the analyzers that
// machine-check the invariants the paper's performance claims rest on:
// allocation-free hot paths, no blocking under locks, a tick-driven clock in
// the matching node, no partition-map shape kept past its epoch, and no
// goroutine that cannot be stopped.
//
// The suite runs as `make lint` via cmd/invalidb-vet. Two source
// directives drive it:
//
//	//invalidb:hotpath
//	    placed in a function's doc comment, marks it as part of the
//	    per-write hot path: hotpathalloc forbids allocating constructs in
//	    its body and coarseclock forbids wall-clock reads.
//
//	//invalidb:allow <analyzer> <reason...>
//	    placed on (or on the line above) an offending line, suppresses
//	    that analyzer's diagnostic there. The reason is mandatory: every
//	    deliberate exception to an invariant is documented in place.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //invalidb:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Requires lists analyzers whose results this one consumes. The
	// driver runs them first (same package) and exposes their results
	// through Pass.ResultOf, mirroring x/tools' Requires mechanism.
	Requires []*Analyzer
	// Run performs the check over a single package. Its return value (the
	// second result) becomes the entry in dependents' Pass.ResultOf.
	Run func(*Pass) (any, error)
}

// Fact is a piece of analysis knowledge attached to a package-level
// object and shared across packages, mirroring x/tools' analysis.Fact.
// Facts exported while analyzing a package are visible to later passes
// over packages that import it (the driver analyzes packages in
// dependency order), keyed by the object's package path and a stable
// in-package object path — not object identity, because each
// type-checked target holds its own view of its imports.
type Fact interface {
	AFact()
}

// Pass is the interface between the driver and one analyzer run over one
// package, mirroring x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	PkgPath   string
	TypesInfo *types.Info

	// ResultOf holds the results of the analyzers named in
	// Analyzer.Requires for this package.
	ResultOf map[*Analyzer]any

	diagnostics *[]Diagnostic
	allowed     map[allowKey]bool
	facts       *factStore
}

// Allowed reports whether an //invalidb:allow directive for the named
// analyzer covers the source line at pos. Analyzers that summarize code
// for other packages (function summaries) consult this so a documented
// exception does not propagate to call sites.
func (p *Pass) Allowed(analyzer string, pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.allowed[allowKey{position.Filename, position.Line, analyzer}]
}

// ExportObjectFact associates fact with obj, a package-level object of
// the package under analysis, making it visible to passes over importing
// packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.export(obj, fact)
}

// ImportObjectFact copies the fact of fact's concrete type previously
// exported for obj (possibly by a pass over another package) into fact,
// reporting whether one existed. fact must be a pointer.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.lookup(obj, fact)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces all InvaliDB lint directives.
const directivePrefix = "//invalidb:"

// Directive names understood by the suite.
const (
	directiveHotpath = "hotpath"
	directiveAllow   = "allow"
)

// parseDirective splits one comment into a directive name and its argument
// string. ok is false when the comment is not an //invalidb: directive.
// Like //go: directives, the marker must be unindented within the comment
// (no space after //).
func parseDirective(text string) (name, args string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(args), true
}

// hasHotpathDirective reports whether the function declaration carries an
// //invalidb:hotpath doc directive.
func hasHotpathDirective(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if name, _, ok := parseDirective(c.Text); ok && name == directiveHotpath {
			return true
		}
	}
	return false
}

// HotpathFuncs returns the functions in the pass annotated //invalidb:hotpath.
func (p *Pass) HotpathFuncs() []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && hasHotpathDirective(fn) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// isPkgFunc reports whether the call invokes the named package-level
// function, e.g. isPkgFunc(info, call, "time", "Now"). The package is
// matched by import path.
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// namedTypeIs reports whether t (after stripping pointers) is the named
// type pkgPath.name.
func namedTypeIs(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// methodOn resolves a call of the form recv.Name(...) and reports whether
// recv's type (through pointers) is pkgPath.typeName. It returns the method
// name.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", false
	}
	if !namedTypeIs(tv.Type, pkgPath, typeName) {
		return "", false
	}
	return sel.Sel.Name, true
}
