// Package pinunpin enforces the buffer-pool pin discipline: every page
// pinned through BufferPool.Fetch or BufferPool.NewPage must reach a
// matching Unpin on every control-flow path of the enclosing function
// (error returns included), unless ownership of the pin escapes — the
// pinned buffer is stored in a field, captured in a composite literal, or
// returned to the caller, as the heap iterator does.
//
// A leaked pin never crashes; it silently shrinks the pool's eviction
// candidate set until "buffer pool exhausted (N pages, all pinned)"
// surfaces under load, far from the leak. That failure mode is exactly
// what this analyzer turns into a compile-time-style report.
package pinunpin

import (
	"go/ast"
	"go/types"

	"recdb/internal/analysis"
)

// Analyzer is the pinunpin pass.
var Analyzer = &analysis.Analyzer{
	Name: "pinunpin",
	Doc:  "every BufferPool.Fetch/NewPage must be balanced by Unpin on all paths",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, fd := range analysis.FuncDecls(pass.Files) {
		checkFunc(pass, fd)
	}
	return nil
}

// pin is one Fetch/NewPage call site.
type pin struct {
	call   *ast.CallExpr
	method string
	// bufObj is the variable holding the pinned buffer (nil when the
	// result is discarded or not a simple assignment).
	bufObj types.Object
	// errObj is the error result variable, used to recognize the
	// "if err != nil { return }" failure path where no pin is held.
	errObj types.Object
	stmt   ast.Stmt // the statement containing the call
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var pins []pin
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Rhs) != 1 {
				return true
			}
			call, ok := v.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			method, ok := pinCall(pass.TypesInfo, call)
			if !ok {
				return true
			}
			p := pin{call: call, method: method, stmt: v}
			// Fetch returns (buf, err); NewPage returns (id, buf, err).
			bufIdx := 0
			if method == "NewPage" {
				bufIdx = 1
			}
			if bufIdx < len(v.Lhs) {
				p.bufObj = identObj(pass.TypesInfo, v.Lhs[bufIdx])
			}
			if last := v.Lhs[len(v.Lhs)-1]; len(v.Lhs) > 1 {
				if o := identObj(pass.TypesInfo, last); o != nil && analysis.ErrorType(o.Type()) {
					p.errObj = o
				}
			}
			pins = append(pins, p)
		case *ast.ExprStmt:
			if call, ok := v.X.(*ast.CallExpr); ok {
				if method, ok := pinCall(pass.TypesInfo, call); ok {
					pass.Reportf(call.Pos(), "result of %s discarded: the page stays pinned forever", method)
				}
			}
		}
		return true
	})

	if len(pins) == 0 {
		return
	}
	cfg := analysis.BuildCFG(fd.Body)
	for _, p := range pins {
		if p.bufObj != nil {
			if esc := escapeOf(fd.Body, pass.TypesInfo, p.bufObj); esc.escaped {
				// Ownership transfer is only a real exemption when someone
				// can still release the pin. A return hands it to the
				// caller; a store into a struct is only safe when that
				// struct has a release method (Iterator.Close unpinning its
				// page). A struct with no such method is a one-way door: the
				// pin can never be released.
				if esc.owner == "" || pass.Pkg.Scope().Lookup(esc.owner) == nil || hasReleaseMethod(pass, esc.owner) {
					// Types declared elsewhere are exempt: their release
					// methods are out of this package's sight.
					continue
				}
				pass.Reportf(p.call.Pos(), "page pinned by %s is stored in %s, which has no method calling Unpin: the pin can never be released", p.method, esc.owner)
				continue
			}
		}
		if leaks(pass.TypesInfo, cfg, p) {
			pass.Reportf(p.call.Pos(), "page pinned by %s is not unpinned on every path (missing Unpin before return)", p.method)
		}
	}
}

// hasReleaseMethod reports whether the named struct type (declared in this
// package) has a method whose body calls BufferPool.Unpin — the release
// half of the store-pin-in-field ownership pattern.
func hasReleaseMethod(pass *analysis.Pass, typeName string) bool {
	for _, fd := range analysis.FuncDecls(pass.Files) {
		if fd.Recv == nil || len(fd.Recv.List) != 1 {
			continue
		}
		named := analysis.NamedOf(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
		if named == nil || named.Obj().Name() != typeName {
			continue
		}
		if containsUnpin(pass.TypesInfo, fd.Body) {
			return true
		}
	}
	return false
}

// pinCall reports whether call pins a page, returning the method name.
func pinCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	for _, m := range []string{"Fetch", "NewPage"} {
		if _, ok := analysis.MethodCall(info, call, "BufferPool", m); ok {
			return m, true
		}
	}
	return "", false
}

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// escape describes how a pinned buffer's ownership leaves the function.
type escape struct {
	escaped bool
	// owner is the struct type name the buffer was stored into (via a
	// field assignment or composite literal), "" when ownership left some
	// other way (returned, stored through an index) — those remain exempt.
	owner string
}

// escapeOf reports whether and how the pinned buffer's ownership leaves
// the function: stored through a selector or index expression, placed in
// a composite literal, or returned.
func escapeOf(body *ast.BlockStmt, info *types.Info, obj types.Object) escape {
	out := escape{}
	usesObj := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
				found = true
			}
			return !found
		})
		return found
	}
	ownerName := func(t types.Type) string {
		if named := analysis.NamedOf(t); named != nil {
			return named.Obj().Name()
		}
		return ""
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if out.escaped {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				rhs := v.Rhs[0]
				if len(v.Rhs) == len(v.Lhs) {
					rhs = v.Rhs[i]
				}
				// Unwrap c.bufs[id], *s.p, (s.f) down to the field selector
				// so the owning struct is attributed correctly.
				target := lhs
			unwrap:
				for {
					switch t := target.(type) {
					case *ast.IndexExpr:
						target = t.X
					case *ast.StarExpr:
						target = t.X
					case *ast.ParenExpr:
						target = t.X
					default:
						break unwrap
					}
				}
				switch t := target.(type) {
				case *ast.SelectorExpr:
					if usesObj(rhs) {
						out = escape{escaped: true, owner: ownerName(info.TypeOf(t.X))}
					}
				case *ast.Ident:
					if target != lhs && usesObj(rhs) {
						out = escape{escaped: true} // local slice/map store
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				if id, ok := r.(*ast.Ident); ok && info.Uses[id] == obj {
					out = escape{escaped: true}
				}
			}
		case *ast.CompositeLit:
			for _, el := range v.Elts {
				if usesObj(el) {
					out = escape{escaped: true, owner: ownerName(info.TypeOf(v))}
				}
			}
		}
		return !out.escaped
	})
	return out
}

// pinState is the dataflow fact for one pin site: which outcomes are
// possible at a program point on the paths that passed the pin. The zero
// value means no path holds (or has held) this pin here.
type pinState struct {
	released   bool // some path has already unpinned
	unreleased bool // some path still holds the pin
	// unchecked: some path has not yet tested the pin call's own error
	// result. Only that first test is the call's failure edge; a later
	// `if err != nil` on a reused err variable runs with the pin held.
	unchecked bool
}

func (s pinState) Join(o pinState) pinState {
	return pinState{s.released || o.released, s.unreleased || o.unreleased, s.unchecked || o.unchecked}
}
func (s pinState) Equal(o pinState) bool { return s == o }
func (s pinState) Clone() pinState       { return s }

// leaks solves the pin state over the function's CFG and reports whether
// some path reaches a return (or the end of the function) still holding
// the pin. A deferred Unpin releases at every later exit, so the defer
// statement itself counts as the release.
func leaks(info *types.Info, g *analysis.CFG, p pin) bool {
	flow := analysis.Solve(g, pinState{}, analysis.Transfer[pinState]{
		Node: func(n ast.Node, s pinState) pinState {
			switch {
			case n == p.stmt:
				return pinState{unreleased: true, unchecked: true}
			case s != (pinState{}) && containsUnpin(info, n):
				return pinState{released: true}
			}
			return s
		},
		Branch: func(cond ast.Expr, taken bool, s pinState) pinState {
			if !s.unchecked || !isErrGuard(info, p, cond) {
				return s
			}
			if taken {
				// The failure path of the pin itself: no pin is held.
				return pinState{}
			}
			s.unchecked = false
			return s
		},
	})
	leak := false
	flow.Exits(func(s pinState) { leak = leak || s.unreleased })
	return leak
}

// isErrGuard reports whether cond tests the pin's error result against
// nil ("err != nil" in either operand order).
func isErrGuard(info *types.Info, p pin, cond ast.Expr) bool {
	if p.errObj == nil {
		return false
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op.String() != "!=" {
		return false
	}
	isErr := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.Uses[id] == p.errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isErr(be.X) && isNil(be.Y)) || (isErr(be.Y) && isNil(be.X))
}

// containsUnpin reports whether an Unpin call on a BufferPool occurs
// anywhere inside the node.
func containsUnpin(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := analysis.MethodCall(info, call, "BufferPool", "Unpin"); ok {
				found = true
			}
		}
		return !found
	})
	return found
}
