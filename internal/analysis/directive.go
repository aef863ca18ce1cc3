package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// Directive validates the //invalidb: source directives the rest of the
// suite keys off. A misspelled or misplaced directive silently disables a
// check — the worst failure mode for a lint suite — so the directives
// themselves are linted:
//
//   - only known directive names (hotpath, allow) are accepted;
//   - //invalidb:hotpath must sit in a function's doc comment;
//   - //invalidb:allow must name a known analyzer and give a reason.
var Directive = &Analyzer{
	Name: "directive",
	Doc:  "validate //invalidb:hotpath and //invalidb:allow directives",
	Run:  runDirective,
}

// knownAnalyzerNames are the valid //invalidb:allow targets.
var knownAnalyzerNames = map[string]bool{
	"hotpathalloc": true,
	"lockblock":    true,
	"coarseclock":  true,
	"directive":    true,
	"epochcapture": true,
	"goroleak":     true,
}

func runDirective(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		// Comments attached as function docs are valid hotpath positions.
		hotpathDocs := map[*ast.Comment]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				hotpathDocs[c] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, args, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				switch name {
				case directiveHotpath:
					if args != "" {
						pass.Reportf(c.Pos(), "//invalidb:hotpath takes no arguments")
					}
					if !hotpathDocs[c] {
						pass.Reportf(c.Pos(), "//invalidb:hotpath must be part of a function's doc comment")
					}
				case directiveAllow:
					fields := strings.Fields(args)
					if len(fields) == 0 {
						pass.Reportf(c.Pos(), "//invalidb:allow needs an analyzer name and a reason")
						continue
					}
					if !knownAnalyzerNames[fields[0]] {
						pass.Reportf(c.Pos(), "//invalidb:allow names unknown analyzer %q (known: %s)",
							fields[0], strings.Join(sortedNames(), ", "))
					}
					if len(fields) < 2 {
						pass.Reportf(c.Pos(), "//invalidb:allow %s needs a reason: deliberate exceptions are documented in place", fields[0])
					}
				default:
					pass.Reportf(c.Pos(), "unknown directive //invalidb:%s (known: hotpath, allow)", name)
				}
			}
		}
	}
	return nil, nil
}

func sortedNames() []string {
	out := make([]string, 0, len(knownAnalyzerNames))
	for n := range knownAnalyzerNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
