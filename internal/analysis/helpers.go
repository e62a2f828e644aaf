package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// namedIn reports whether t (after stripping one pointer) is the named
// type name declared in a package whose import path ends with pkgSuffix.
func namedIn(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || strings.HasSuffix(path, "/"+pkgSuffix)
}

// isObsSpan reports whether t is *obs.Span (or obs.Span).
func isObsSpan(t types.Type) bool { return namedIn(t, "internal/obs", "Span") }

// isFloat reports whether t's underlying type is a floating-point
// basic type (or an untyped float constant).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// numericSliceElem returns the element type name when t's underlying
// type is a slice of a basic numeric type ([]float64, []uint32, a
// named vector type over one of those, …).
func numericSliceElem(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return "", false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsNumeric == 0 {
		return "", false
	}
	return b.Name(), true
}

// fieldSelection returns the selection when sel is a struct-field
// access, or nil.
func fieldSelection(info *types.Info, sel *ast.SelectorExpr) *types.Selection {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s
}

// rootIdent walks down selectors, index and slice expressions to the
// identifier at the root of the chain, if any (e.g. g in
// g.adj[a:b]).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isZeroConst reports whether e is a compile-time numeric constant
// equal to zero.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}
