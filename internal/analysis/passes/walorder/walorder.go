// Package walorder protects the engine's durability contract: the order
// WAL append vs. state apply, and the mutex that serializes them.
//
// Two rules, both derived from the crash-safety design (DESIGN.md):
//
//  1. Raw WAL writes are confined to the commit hook. The only sanctioned
//     caller of Log.Append or Log.AppendBatch is a function registered
//     via SetCommitHook
//     (either a named function/method passed by value or a function
//     literal passed inline) — that hook is invoked by the engine at the
//     one point in the commit sequence where logging before apply is
//     guaranteed. An Append anywhere else can persist a statement that
//     never applied, or apply one that never persisted.
//
//  2. Engine exec entry points reached through a mutex-owning wrapper
//     (db.eng.ExecParsed and friends) must be reachable with the
//     wrapper's mutex held. That mutex is what makes hook-append and
//     apply atomic with respect to concurrent commits. A conditional
//     acquisition is sanctioned — the wrapper locks only for mutating
//     statements, read-only ones go through page-level snapshots without
//     it, and the dataflow cannot evaluate that predicate — but a call
//     site no path ever locks for, or one some path has locked and then
//     released before the call, is an ordering bug.
//
// Methods of the Log type itself are exempt from rule 1 (the WAL's own
// internals), as are engines reached through plain locals (replay code
// constructs a private engine before any concurrency exists).
package walorder

import (
	"go/ast"
	"go/types"

	"recdb/internal/analysis"
)

// Analyzer is the walorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "WAL appends only inside the registered commit hook; engine exec only under the owner's mutex",
	Run:  run,
}

// execEntryPoints are the Engine methods that mutate state and therefore
// trigger the commit hook.
var execEntryPoints = map[string]bool{
	"Exec":          true,
	"ExecScript":    true,
	"ExecParsed":    true,
	"ExecParsedCtx": true,
}

func run(pass *analysis.Pass) error {
	hooks, hookLits := hookRegistrations(pass)
	for _, fd := range analysis.FuncDecls(pass.Files) {
		fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		sanctioned := (fn != nil && hooks[fn]) || receiverIsLog(pass, fd)
		checkAppends(pass, fd.Body, sanctioned, hookLits)
		checkExecLocks(pass, fd)
	}
	return nil
}

// hookRegistrations finds every function registered as a commit hook:
// named functions/methods passed by value to SetCommitHook, and function
// literals passed inline.
func hookRegistrations(pass *analysis.Pass) (map[*types.Func]bool, map[*ast.FuncLit]bool) {
	hooks := analysis.FuncValuesPassedTo(pass.TypesInfo, pass.Files, "SetCommitHook")
	lits := make(map[*ast.FuncLit]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "SetCommitHook" {
				return true
			}
			for _, arg := range call.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					lits[fl] = true
				}
			}
			return true
		})
	}
	return hooks, lits
}

// receiverIsLog reports whether fd is a method of the WAL Log type.
func receiverIsLog(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	named := analysis.NamedOf(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type))
	return named != nil && named.Obj().Name() == "Log"
}

// checkAppends flags Log.Append calls outside sanctioned contexts,
// descending into function literals and granting hook literals sanction.
func checkAppends(pass *analysis.Pass, body ast.Node, sanctioned bool, hookLits map[*ast.FuncLit]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			if v != body {
				checkAppends(pass, v.Body, sanctioned || hookLits[v], hookLits)
				return false
			}
		case *ast.CallExpr:
			for _, m := range [...]string{"Append", "AppendBatch"} {
				if _, ok := analysis.MethodCall(pass.TypesInfo, v, "Log", m); ok && !sanctioned {
					pass.Reportf(v.Pos(), "Log.%s outside the registered commit hook: WAL and engine state can diverge on crash", m)
				}
			}
		}
		return true
	})
}

// checkExecLocks verifies rule 2 with the lock dataflow: every Engine
// exec entry point reached through <owner>.<field> where owner's struct
// has a mutex must execute with that mutex held on all paths.
func checkExecLocks(pass *analysis.Pass, fd *ast.FuncDecl) {
	g := analysis.BuildCFG(fd.Body)
	lf := analysis.SolveLockFlow(g, pass.TypesInfo, analysis.LockSet{})
	lf.Walk(func(n ast.Node, held analysis.LockSet) {
		ast.Inspect(n, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false // runs later, under its own discipline
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !execEntryPoints[sel.Sel.Name] {
				return true
			}
			engNamed := analysis.NamedOf(pass.TypesInfo.TypeOf(sel.X))
			if engNamed == nil || engNamed.Obj().Name() != "Engine" {
				return true
			}
			ownerSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
			if !ok {
				return true // plain local engine: private, pre-concurrency
			}
			ownerNamed := analysis.NamedOf(pass.TypesInfo.TypeOf(ownerSel.X))
			if ownerNamed == nil {
				return true
			}
			mutexes := mutexFieldsOf(ownerNamed)
			if len(mutexes) == 0 {
				return true
			}
			base := analysis.BaseString(ownerSel.X)
			if base == "" {
				return true
			}
			// The best state among the owner's mutexes decides; Released
			// separates the sanctioned conditional lock (one branch never
			// touches the mutex) from a lock-then-early-release.
			var st analysis.LockState
			for _, mf := range mutexes {
				s := held[base+"."+mf]
				if s.Held() && (!st.Held() || (s.Must && !st.Must)) {
					st = s
				} else if !st.Held() && s.Released {
					st.Released = true
				}
			}
			switch {
			case !st.Held():
				pass.Reportf(call.Pos(), "Engine.%s called through %s.%s without holding %s's mutex: commit hook and apply lose their ordering guarantee", sel.Sel.Name, base, ownerSel.Sel.Name, base)
			case st.Released:
				pass.Reportf(call.Pos(), "Engine.%s called through %s.%s while %s's mutex is unlocked on some path", sel.Sel.Name, base, ownerSel.Sel.Name, base)
			}
			return true
		})
	})
}

// mutexFieldsOf returns the names of the sync.Mutex / sync.RWMutex fields
// of the named type's underlying struct.
func mutexFieldsOf(named *types.Named) []string {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if analysis.MutexKindOf(st.Field(i).Type()) != "" {
			out = append(out, st.Field(i).Name())
		}
	}
	return out
}
