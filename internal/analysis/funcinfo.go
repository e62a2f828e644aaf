package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// FuncInfo bundles the flow-analysis state of one function. Instances
// are cached per package (shared across the analyzers of one run)
// through Pass.FuncInfo, so the CFG of a function is constructed once
// no matter how many analyzers inspect it.
type FuncInfo struct {
	// Fn is the *ast.FuncDecl or *ast.FuncLit.
	Fn ast.Node
	// Body is the function body (nil for bodyless declarations).
	Body *ast.BlockStmt
	// CFG is the function's control-flow graph.
	CFG *CFG
}

// funcCache shares FuncInfo instances across the analyzers run over
// one package.
type funcCache struct {
	infos map[ast.Node]*FuncInfo
}

func newFuncCache() *funcCache { return &funcCache{infos: map[ast.Node]*FuncInfo{}} }

// FuncInfo returns the cached flow-analysis state of fn (an
// *ast.FuncDecl or *ast.FuncLit), building the CFG on first request.
func (p *Pass) FuncInfo(fn ast.Node) *FuncInfo {
	if p.funcs == nil {
		// Standalone pass (tests constructing a Pass by hand): use a
		// private cache.
		p.funcs = newFuncCache()
	}
	if fi := p.funcs.infos[fn]; fi != nil {
		return fi
	}
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	fi := &FuncInfo{Fn: fn, Body: body, CFG: NewCFG(fn)}
	p.funcs.infos[fn] = fi
	return fi
}

// forEachFunc invokes f for every function declaration and function
// literal with a body in the pass's files, outermost first.
func forEachFunc(pass *Pass, f func(fn ast.Node, body *ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					f(fn, fn.Body)
				}
			case *ast.FuncLit:
				f(fn, fn.Body)
			}
			return true
		})
	}
}

// exprPath renders a selector/ident chain as a stable key ("r.mu",
// "s.store.mu"); it returns "" for expressions that are not plain
// chains (map index, call results, …), which flow analyses skip
// rather than mis-track.
func exprPath(e ast.Expr) string {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			parts = append(parts, x.Name)
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, ".")
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

// methodOn resolves a call of the form recv.Name(...) and reports the
// method name, the receiver expression, and the receiver's type
// (through the type-checker's selection, so embedded promotions
// resolve to the declaring type). ok is false for non-method calls.
func methodOn(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, recvType types.Type, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, nil, false
	}
	selection, found := info.Selections[sel]
	if !found || selection.Kind() != types.MethodVal {
		return "", nil, nil, false
	}
	fn, isFn := selection.Obj().(*types.Func)
	if !isFn {
		return "", nil, nil, false
	}
	recvT := fn.Type().(*types.Signature).Recv().Type()
	return fn.Name(), sel.X, recvT, true
}
