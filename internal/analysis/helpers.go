package analysis

import (
	"go/ast"
	"go/types"
)

// NamedOf unwraps pointers and returns the named type of t, if any.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n
	}
	if p, ok := t.(*types.Pointer); ok {
		if n, ok := p.Elem().(*types.Named); ok {
			return n
		}
	}
	return nil
}

// MethodCall reports whether call is a method call named method on a value
// whose named type (after pointer unwrapping) is typeName, returning the
// receiver expression.
func MethodCall(info *types.Info, call *ast.CallExpr, typeName, method string) (recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != method {
		return nil, false
	}
	named := NamedOf(info.TypeOf(sel.X))
	if named == nil || named.Obj().Name() != typeName {
		return nil, false
	}
	return sel.X, true
}

// ErrorType reports whether t is (or implements) the built-in error
// interface.
func ErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// FuncDecls yields every function declaration with a body in the package.
func FuncDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// BaseString renders the expression as a stable textual key ("m",
// "it.heap") for comparing lock-holder and field-access bases. Only
// identifier/selector/paren chains produce a key; anything else (calls,
// index expressions) yields "", meaning "not comparable".
func BaseString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.ParenExpr:
		return BaseString(v.X)
	case *ast.SelectorExpr:
		x := BaseString(v.X)
		if x == "" {
			return ""
		}
		return x + "." + v.Sel.Name
	case *ast.StarExpr:
		return BaseString(v.X)
	}
	return ""
}
