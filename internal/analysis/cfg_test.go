package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks src (one file of package p) and returns the named
// function's declaration plus the type info.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("no func %s", name)
	return nil, nil
}

// TestCFGIfElse: both branches exist, rejoin, and the return block has no
// successors.
func TestCFGIfElse(t *testing.T) {
	fd, _ := parseFunc(t, `package p
func f(a bool) int {
	x := 0
	if a {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "f")
	g := BuildCFG(fd.Body)
	var returns, terminal int
	for _, b := range g.Blocks {
		if b.Return {
			returns++
		}
		if len(b.Succs) == 0 && len(b.Nodes) > 0 {
			terminal++
		}
	}
	if returns != 1 {
		t.Errorf("want exactly 1 return block, got %d", returns)
	}
	if terminal != 1 {
		t.Errorf("want exactly 1 terminal block with nodes, got %d", terminal)
	}
}

// TestCFGLoopBackEdge: a for loop produces a cycle in the graph.
func TestCFGLoopBackEdge(t *testing.T) {
	fd, _ := parseFunc(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, "f")
	g := BuildCFG(fd.Body)
	// A back edge exists iff some block's successor has a smaller index.
	back := false
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s.Index < b.Index {
				back = true
			}
		}
	}
	if !back {
		t.Error("for loop should produce a back edge")
	}
}

// TestCFGDeferGoCapture: defers and go-closure bodies are collected, and
// the spawned body is not inlined into the graph's blocks.
func TestCFGDeferGoCapture(t *testing.T) {
	fd, _ := parseFunc(t, `package p
import "sync"
type s struct{ mu sync.Mutex }
func f(v *s) {
	defer v.mu.Unlock()
	defer func() { _ = v }()
	go func() { v.mu.Lock() }()
}`, "f")
	g := BuildCFG(fd.Body)
	if len(g.Defers) != 2 {
		t.Errorf("want 2 defers, got %d", len(g.Defers))
	}
	if len(g.DeferBodies) != 1 {
		t.Errorf("want 1 deferred closure, got %d", len(g.DeferBodies))
	}
	if len(g.GoBodies) != 1 {
		t.Errorf("want 1 go closure, got %d", len(g.GoBodies))
	}
}

// TestCFGLabeledBreak: break LABEL exits the labeled outer loop, keeping
// the statement after it reachable.
func TestCFGLabeledBreak(t *testing.T) {
	fd, _ := parseFunc(t, `package p
func f(n int) int {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				break outer
			}
		}
	}
	return n
}`, "f")
	g := BuildCFG(fd.Body)
	found := false
	for _, b := range g.Blocks {
		if b.Return {
			found = true
		}
	}
	if !found {
		t.Error("return after labeled break must be reachable")
	}
}

// TestLockFlowEarlyExit: the early-exit unlock idiom leaves the
// fallthrough path locked; after the branch rejoins, the lock is may- but
// not must-held, and after the final unlock it is gone.
func TestLockFlowEarlyExit(t *testing.T) {
	src := `package p
import "sync"
type C struct {
	mu sync.Mutex
	n  int
}
func (c *C) f(fast bool) int {
	c.mu.Lock()
	if fast {
		n := c.n
		c.mu.Unlock()
		return n
	}
	n := c.n * 2
	c.mu.Unlock()
	return n
}`
	fd, info := parseFunc(t, src, "f")
	g := BuildCFG(fd.Body)
	lf := SolveLockFlow(g, info, LockSet{})
	// At every read of c.n the lock must be held.
	lf.Walk(func(n ast.Node, held LockSet) {
		ast.Inspect(n, func(x ast.Node) bool {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "n" {
				return true
			}
			st, ok := held["c.mu"]
			if !ok || !st.Must || !st.MayExcl {
				t.Errorf("c.n read without must-held lock: %+v", held)
			}
			return true
		})
	})
}

// TestLockFlowSomePath: after a conditional unlock rejoins the main path,
// must drops while may survives — the fact the some-path checks rely on.
func TestLockFlowSomePath(t *testing.T) {
	src := `package p
import "sync"
type C struct{ mu sync.Mutex }
func (c *C) f(early bool) {
	c.mu.Lock()
	if early {
		c.mu.Unlock()
	}
	c.mu.Unlock()
}`
	fd, info := parseFunc(t, src, "f")
	g := BuildCFG(fd.Body)
	lf := SolveLockFlow(g, info, LockSet{})
	var sawFinal bool
	lf.Walk(func(n ast.Node, held LockSet) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		if _, op, ok := LockEventOf(info, es.X); !ok || op != "Unlock" {
			return
		}
		st := held["c.mu"]
		if !st.Held() {
			return // the conditional unlock: lock still must-held there
		}
		if !st.Must {
			sawFinal = true // the rejoined final unlock: may-held only
		}
	})
	if !sawFinal {
		t.Error("expected the final unlock to see a may-held-only state")
	}
}

// TestDeferredUnlocks: both direct deferred unlocks and closure-wrapped
// ones are recognized, and ClosureEntryLocks assumes the released lock
// held at closure entry.
func TestDeferredUnlocks(t *testing.T) {
	src := `package p
import "sync"
type C struct{ mu sync.Mutex; rw sync.RWMutex }
func (c *C) f() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rw.RLock()
	defer func() { c.rw.RUnlock() }()
}`
	fd, info := parseFunc(t, src, "f")
	g := BuildCFG(fd.Body)
	lf := SolveLockFlow(g, info, LockSet{})
	keys := lf.DeferredUnlocks()
	if len(keys) != 2 || keys[0] != "c.mu" || keys[1] != "c.rw" {
		t.Errorf("DeferredUnlocks = %v, want [c.mu c.rw]", keys)
	}
	entry := ClosureEntryLocks(info, g.DeferBodies[0])
	st, ok := entry["c.rw"]
	if !ok || !st.MayRead || st.MayExcl {
		t.Errorf("closure entry locks = %+v, want read-held c.rw", entry)
	}
}
