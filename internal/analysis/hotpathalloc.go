package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc flags allocating constructs inside functions annotated
// //invalidb:hotpath. The zero-allocation routing and matching path is the
// foundation of PR 1's latency win (1.16ms → 36µs end-to-end); this
// analyzer keeps it machine-checked instead of reviewer-checked.
//
// Flagged constructs:
//   - calls into the fmt print family, errors.New, strings.Join/Repeat,
//     strconv.Quote/Format* — formatting always allocates;
//   - time.After/NewTimer/NewTicker/Tick/AfterFunc — one runtime timer per
//     call, which is how a per-iteration poll timeout shows up in a loop;
//   - string concatenation with non-constant operands;
//   - make() and new();
//   - pointer-to-composite literals (&T{...}) and map/slice/func literals —
//     value struct literals are allowed (they live on the stack);
//   - string([]byte) / []byte(string) conversions, except the
//     compiler-optimized m[string(b)] map-index form;
//   - interface boxing: passing or assigning a non-pointer concrete value
//     where an interface is expected;
//   - method values (x.M used as a value captures a closure).
//
// The check is interprocedural: a call from a hot-path function into any
// function whose summary (FuncSummaries) reaches an allocating construct —
// through any chain of statically resolved calls, across package
// boundaries — is reported at the call site, naming the underlying
// operation. Callees annotated //invalidb:hotpath are exempt at call
// sites: their own bodies are checked directly. Operations excused with
// //invalidb:allow do not propagate.
//
// append() is deliberately not flagged: hot-path code appends into
// preallocated scratch slices whose amortized growth is part of the design.
var HotpathAlloc = &Analyzer{
	Name:     "hotpathalloc",
	Doc:      "forbid allocating constructs in //invalidb:hotpath functions, transitively through calls",
	Requires: []*Analyzer{CallGraphAnalyzer, FuncSummaries},
	Run:      runHotpathAlloc,
}

// allocFmtFuncs are package-level functions that always allocate.
var allocFmtFuncs = map[string]map[string]bool{
	"fmt": {
		"Sprint": true, "Sprintf": true, "Sprintln": true,
		"Errorf": true, "Fprintf": true, "Fprint": true, "Fprintln": true,
		"Appendf": true, "Append": true, "Appendln": true,
	},
	"errors":  {"New": true},
	"strings": {"Join": true, "Repeat": true, "ToLower": true, "ToUpper": true, "Split": true},
	"strconv": {"Quote": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true, "Itoa": true},
	"time":    {"After": true, "NewTimer": true, "NewTicker": true, "Tick": true, "AfterFunc": true},
}

func runHotpathAlloc(pass *Pass) (any, error) {
	cg := pass.ResultOf[CallGraphAnalyzer].(*CallGraph)
	sums := pass.ResultOf[FuncSummaries].(Summaries)
	for _, fn := range pass.HotpathFuncs() {
		if fn.Body == nil {
			continue
		}
		collectAllocOps(pass.TypesInfo, fn, func(pos token.Pos, _ string, full string) {
			pass.Reportf(pos, "%s", full)
		})
		obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		if !ok {
			continue
		}
		reported := map[*types.Func]bool{}
		for _, site := range cg.Calls[obj] {
			if reported[site.Callee] || isDirectAllocCall(pass.TypesInfo, site.Call) {
				continue // the direct-op walk already reported this site
			}
			s := summaryFor(pass, sums, site.Callee)
			if s == nil || s.Hotpath || len(s.Allocs) == 0 {
				continue
			}
			reported[site.Callee] = true
			pass.Reportf(site.Call.Pos(), "call to %s allocates in hot path: %s", site.Callee.Name(), s.Allocs[0].chain())
		}
	}
	return nil, nil
}

// isDirectAllocCall reports whether the call is itself one of the known
// allocating stdlib helpers (already reported by the direct-op walk).
func isDirectAllocCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	names, ok := allocFmtFuncs[obj.Pkg().Path()]
	return ok && names[obj.Name()] && obj.Type().(*types.Signature).Recv() == nil
}

// allocEmit receives one allocating construct: its position, a compact
// label for summaries ("make", "string concatenation") and the full
// diagnostic message for direct reporting.
type allocEmit func(pos token.Pos, what, full string)

// collectAllocOps walks one function body and emits every allocating
// construct. It is shared between the hot-path reporting pass (which runs
// it over //invalidb:hotpath functions only) and the function summarizer
// (which runs it over every function so callers can see callee effects).
func collectAllocOps(info *types.Info, fn *ast.FuncDecl, emit allocEmit) {
	if fn.Body == nil {
		return
	}
	exemptConv := mapIndexConversions(info, fn.Body)
	// parents tracks the path so conversions can see their context
	// (map-index string(b) is allocation-free).
	var parents []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			if len(parents) > 0 {
				parents = parents[:len(parents)-1]
			}
			return true
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			collectAllocCall(info, x, exemptConv, emit)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info, x) && !isConstExpr(info, x) {
				emit(x.OpPos, "string concatenation", "string concatenation allocates in hot path")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					emit(x.Pos(), "&composite literal", "&composite literal escapes to the heap in hot path")
				}
			}
		case *ast.CompositeLit:
			if t := info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					emit(x.Pos(), "map literal", "map literal allocates in hot path")
				case *types.Slice:
					emit(x.Pos(), "slice literal", "slice literal allocates in hot path")
				}
			}
		case *ast.FuncLit:
			emit(x.Pos(), "function literal", "function literal allocates a closure in hot path")
			parents = append(parents, n)
			return true
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
				if !isCallFun(parents, x) {
					emit(x.Pos(), "method value "+x.Sel.Name,
						"method value "+x.Sel.Name+" allocates a closure in hot path")
				}
			}
		}
		parents = append(parents, n)
		return true
	}
	ast.Inspect(fn.Body, visit)
	collectBoxingOps(info, fn, emit)
}

// isCallFun reports whether sel is the function operand of its parent call
// (an ordinary method call, which does not allocate).
func isCallFun(parents []ast.Node, sel *ast.SelectorExpr) bool {
	if len(parents) == 0 {
		return false
	}
	call, ok := parents[len(parents)-1].(*ast.CallExpr)
	return ok && call.Fun == sel
}

// mapIndexConversions collects string([]byte) conversions used directly as
// a map index — the compiler elides that allocation, so the conversion is
// exempt from the hot-path rule.
func mapIndexConversions(info *types.Info, body ast.Node) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		xt := info.Types[idx.X].Type
		if xt == nil {
			return true
		}
		if _, ok := xt.Underlying().(*types.Map); !ok {
			return true
		}
		if call, ok := idx.Index.(*ast.CallExpr); ok {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				out[call] = true
			}
		}
		return true
	})
	return out
}

func collectAllocCall(info *types.Info, call *ast.CallExpr, exemptConv map[*ast.CallExpr]bool, emit allocEmit) {
	// Known allocating stdlib helpers.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil {
			if names, ok := allocFmtFuncs[obj.Pkg().Path()]; ok && names[obj.Name()] &&
				obj.Type().(*types.Signature).Recv() == nil {
				what := obj.Pkg().Name() + "." + obj.Name()
				emit(call.Pos(), what, what+" allocates in hot path")
				return
			}
		}
	}
	// Builtins and conversions.
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if isBuiltin(info, fun) {
				emit(call.Pos(), "make", "make allocates in hot path")
			}
		case "new":
			if isBuiltin(info, fun) {
				emit(call.Pos(), "new", "new allocates in hot path")
			}
		}
	}
	collectStringConversion(info, call, exemptConv, emit)
}

// collectStringConversion flags string<->[]byte conversions. The map-index
// form m[string(b)] is recognized by the compiler and does not allocate,
// so it is exempt.
func collectStringConversion(info *types.Info, call *ast.CallExpr, exemptConv map[*ast.CallExpr]bool, emit allocEmit) {
	if len(call.Args) != 1 || exemptConv[call] {
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := tv.Type.Underlying()
	argT := info.Types[call.Args[0]].Type
	if argT == nil {
		return
	}
	src := argT.Underlying()
	if isStringByteConv(dst, src) {
		emit(call.Pos(), "string/[]byte conversion",
			"string/[]byte conversion allocates in hot path (map-index lookups m[string(b)] are exempt)")
	}
}

func isStringByteConv(dst, src types.Type) bool {
	return (isString(dst) && isByteSlice(src)) || (isByteSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && e.Kind() == types.Uint8
}

func isStringType(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	return t != nil && isString(t.Underlying())
}

func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// collectBoxingOps flags implicit conversions of non-pointer concrete
// values to interface types in call arguments and assignments — the
// boxing allocates an escaping copy of the value.
func collectBoxingOps(info *types.Info, fn *ast.FuncDecl, emit allocEmit) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tv, ok := info.Types[call.Fun]
		if ok && tv.IsType() {
			return true // conversion, handled elsewhere
		}
		sig, ok := tv.Type.(*types.Signature)
		if !ok {
			return true
		}
		params := sig.Params()
		for i, arg := range call.Args {
			var paramT types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if i == params.Len()-1 && call.Ellipsis != token.NoPos {
					paramT = params.At(params.Len() - 1).Type()
				} else {
					paramT = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
				}
			case i < params.Len():
				paramT = params.At(i).Type()
			}
			if paramT == nil {
				continue
			}
			if boxes(info, arg, paramT) {
				argT := info.Types[arg].Type
				emit(arg.Pos(), "interface boxing",
					"argument boxes "+argT.String()+" into interface "+paramT.String()+" (allocates) in hot path")
			}
		}
		return true
	})
}

// boxes reports whether passing arg to a parameter of type paramT converts
// a non-pointer concrete value to an interface.
func boxes(info *types.Info, arg ast.Expr, paramT types.Type) bool {
	if _, ok := paramT.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[arg]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.Value != nil {
		return false // constants box into read-only statics
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly, no copy
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}
