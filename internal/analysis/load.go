package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed, type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Imports []string
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// goList enumerates the packages matching the patterns via the go command.
// The go command must run from inside the module (the caller's working
// directory), so module-local import paths resolve.
func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load parses and type-checks the packages matching the patterns
// (production files only — tests do not participate in hot paths). All
// packages share one FileSet and one source importer, so dependencies are
// type-checked once and reused across targets.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var out []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := TypeCheck(fset, imp, lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		out = append(out, &Package{
			PkgPath: lp.ImportPath,
			Fset:    fset,
			Files:   files,
			Types:   pkg,
			Info:    info,
			Imports: lp.Imports,
		})
	}
	return sortByDependency(out), nil
}

// sortByDependency orders packages so every package follows the loaded
// packages it imports (directly or transitively). Facts exported while
// analyzing a dependency are then visible to its dependents — the flow
// direction of the x/tools fact model.
func sortByDependency(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	out := make([]*Package, 0, len(pkgs))
	seen := map[string]bool{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.PkgPath] {
			return
		}
		seen[p.PkgPath] = true
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// TypeCheck type-checks one package's parsed files with full type
// information, resolving imports through imp. It is exported for the
// fixture-based analyzer tests, which check testdata packages the go
// command cannot list.
func TypeCheck(fset *token.FileSet, imp types.Importer, pkgPath, dir string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	if dir != "" {
		if from, ok := imp.(types.ImporterFrom); ok {
			conf.Importer = dirImporter{from: from, dir: dir}
		}
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// dirImporter pins the source directory used for import resolution, so
// packages whose files live outside the module layout (testdata fixtures)
// still resolve module-local imports.
type dirImporter struct {
	from types.ImporterFrom
	dir  string
}

func (d dirImporter) Import(path string) (*types.Package, error) {
	return d.from.ImportFrom(path, d.dir, 0)
}

func (d dirImporter) ImportFrom(path, _ string, mode types.ImportMode) (*types.Package, error) {
	return d.from.ImportFrom(path, d.dir, mode)
}
