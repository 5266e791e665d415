package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the dataflow layer over the CFG: one forward worklist
// solver, generic over the fact it propagates, and its first instance,
// lock states ("reaching locks"). The solver answers, for every program
// point, what holds on the paths that reach it; an instance supplies the
// fact (a join-semilattice value), a per-node transfer function and,
// optionally, a refinement along the two edges out of a condition. The
// lock instance serves locksafe; pinunpin supplies the
// other (is the page pinned by this Fetch still unreleased).

// Fact is the value a dataflow problem propagates: a join-semilattice
// element the solver can merge, compare and copy.
type Fact[F any] interface {
	// Join merges the facts of two paths meeting at one point.
	Join(F) F
	Equal(F) bool
	// Clone returns a copy the caller may mutate.
	Clone() F
}

// Transfer is how a dataflow problem moves its fact through the graph.
type Transfer[F any] struct {
	// Node returns the fact after n executes given the fact before it.
	// It owns f and may mutate and return it.
	Node func(n ast.Node, f F) F
	// Branch, when non-nil, refines the fact along an edge out of a
	// block ending in a condition (Block.Cond): taken says whether the
	// edge is the one followed when cond holds. It owns f like Node.
	Branch func(cond ast.Expr, taken bool, f F) F
}

// Flow is a solved forward dataflow problem over one function body.
type Flow[F Fact[F]] struct {
	g  *CFG
	tr Transfer[F]
	// in[i] / out[i] are the facts on entry to and exit from Blocks[i],
	// meaningful only where reached[i]: no path reaches the others.
	in, out []F
	reached []bool
}

// Solve runs the forward analysis over g from the given entry fact.
func Solve[F Fact[F]](g *CFG, entry F, tr Transfer[F]) *Flow[F] {
	n := len(g.Blocks)
	fl := &Flow[F]{g: g, tr: tr, in: make([]F, n), out: make([]F, n), reached: make([]bool, n)}
	fl.in[0], fl.reached[0] = entry.Clone(), true

	type inEdge struct {
		from  *Block
		taken bool
	}
	preds := make([][]inEdge, n)
	for _, b := range g.Blocks {
		for i, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], inEdge{b, i == 0})
		}
	}

	// Iterate to fixpoint. Facts form a finite lattice (bounded by the
	// function's own lock calls or pin sites), so this terminates
	// quickly. done[i] says out[i] has been computed at least once.
	done := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			if i != 0 {
				var merged F
				reached := false
				for _, e := range preds[i] {
					if !done[e.from.Index] {
						continue
					}
					f := fl.out[e.from.Index].Clone()
					if e.from.Cond != nil && tr.Branch != nil {
						f = tr.Branch(e.from.Cond, e.taken, f)
					}
					if reached {
						merged = merged.Join(f)
					} else {
						merged, reached = f, true
					}
				}
				if reached && (!fl.reached[i] || !fl.in[i].Equal(merged)) {
					fl.in[i], fl.reached[i], changed = merged, true, true
				}
			}
			if !fl.reached[i] {
				continue
			}
			f := fl.in[i].Clone()
			for _, node := range b.Nodes {
				f = tr.Node(node, f)
			}
			if !done[i] || !fl.out[i].Equal(f) {
				fl.out[i], done[i], changed = f, true, true
			}
		}
	}
	return fl
}

// Walk visits every reachable node in block order with the fact in force
// just before the node executes. The fact passed to fn is shared scratch
// state: copy it if it must outlive the call.
func (fl *Flow[F]) Walk(fn func(n ast.Node, before F)) {
	for _, b := range fl.g.Blocks {
		if !fl.reached[b.Index] {
			continue
		}
		f := fl.in[b.Index].Clone()
		for _, node := range b.Nodes {
			fn(node, f)
			f = fl.tr.Node(node, f)
		}
	}
}

// Exits calls fn with the fact at every reachable function exit: after a
// return statement, or falling off the end of the body.
func (fl *Flow[F]) Exits(fn func(F)) {
	for _, b := range fl.g.Blocks {
		if b.Return && fl.reached[b.Index] {
			fn(fl.out[b.Index])
		}
	}
}

// Lock kinds.
const (
	LockExcl = "Lock"
	LockRead = "RLock"
)

// LockState describes one mutex at one program point.
type LockState struct {
	// MayExcl / MayRead: some path to this point holds the lock
	// exclusively / for reading.
	MayExcl bool
	MayRead bool
	// Must: every path to this point holds the lock (in some mode).
	Must bool
}

// Held reports whether any path holds the lock at all.
func (s LockState) Held() bool { return s.MayExcl || s.MayRead }

// Kind returns the strongest mode any path holds: LockExcl, LockRead, or
// "" when unheld.
func (s LockState) Kind() string {
	switch {
	case s.MayExcl:
		return LockExcl
	case s.MayRead:
		return LockRead
	}
	return ""
}

// LockSet maps a lock key — the full BaseString of the mutex expression,
// e.g. "db.mu" for db.mu.Lock() or "h.verMu" for h.verMu.Lock() — to its
// state. Keying by the full path (rather than the owner alone) keeps two
// mutexes of the same struct distinct, which structs with a wide lock
// plus a narrow lock (HeapFile's mu and verMu) require. Absent keys are
// definitely unheld.
type LockSet map[string]LockState

// Clone copies the set.
func (ls LockSet) Clone() LockSet {
	c := make(LockSet, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

// Equal reports whether both sets hold the same state for every key.
func (ls LockSet) Equal(o LockSet) bool {
	if len(ls) != len(o) {
		return false
	}
	for k, v := range ls {
		if o[k] != v {
			return false
		}
	}
	return true
}

// Join merges two predecessor states: may-facts union, must-facts
// intersect.
func (ls LockSet) Join(o LockSet) LockSet {
	out := make(LockSet, len(ls)+len(o))
	for k, va := range ls {
		vb := o[k] // zero value when absent: nothing held on that path
		out[k] = LockState{
			MayExcl: va.MayExcl || vb.MayExcl,
			MayRead: va.MayRead || vb.MayRead,
			Must:    va.Must && vb.Must,
		}
	}
	for k, vb := range o {
		if _, seen := ls[k]; !seen {
			out[k] = LockState{MayExcl: vb.MayExcl, MayRead: vb.MayRead}
		}
	}
	return out
}

// LockEventOf decodes expr as <mutex-path>.(Lock|RLock|Unlock|RUnlock)()
// on a sync.Mutex or sync.RWMutex, returning the full mutex path as the
// lock key ("db.mu", "h.verMu", or "mu" for a bare mutex variable) and
// the operation name. The key deliberately includes the mutex field so
// that a struct with more than one mutex gets one lock fact per mutex;
// SplitLockKey recovers the owner when a check needs it.
func LockEventOf(info *types.Info, expr ast.Expr) (base, op string, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if MutexKindOf(info.TypeOf(sel.X)) == "" {
		return "", "", false
	}
	b := BaseString(sel.X)
	if b == "" {
		return "", "", false
	}
	return b, sel.Sel.Name, true
}

// SplitLockKey splits a lock key into the owner path and the mutex field
// name: "h.verMu" -> ("h", "verMu"). A bare mutex variable has no owner:
// "mu" -> ("", "mu").
func SplitLockKey(key string) (owner, field string) {
	if i := lastDot(key); i >= 0 {
		return key[:i], key[i+1:]
	}
	return "", key
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// MutexKindOf returns "Mutex" or "RWMutex" for the sync mutex types, ""
// otherwise.
func MutexKindOf(t types.Type) string {
	named := NamedOf(t)
	if named == nil {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	if obj.Name() == "Mutex" || obj.Name() == "RWMutex" {
		return obj.Name()
	}
	return ""
}

// collectMutexAliases scans a CFG for local aliases of a mutex path —
// `m := &s.mu` (and pointer copies `n := m`) — and maps each alias
// variable to the canonical lock key of the mutex it points at. Without
// this, `m.Lock()` and `s.mu.Unlock()` would track as two different
// locks and every alias-style critical section would be a false
// "unlocked" finding. An alias that is ever redirected at a second
// mutex is dropped as ambiguous.
func collectMutexAliases(info *types.Info, g *CFG) map[string]string {
	aliases := map[string]string{}
	ambiguous := map[string]bool{}
	record := func(name, key string) {
		if ambiguous[name] {
			return
		}
		if prev, ok := aliases[name]; ok && prev != key {
			delete(aliases, name)
			ambiguous[name] = true
			return
		}
		aliases[name] = key
	}
	visit := func(as *ast.AssignStmt) {
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			switch rhs := as.Rhs[i].(type) {
			case *ast.UnaryExpr:
				if rhs.Op != token.AND || MutexKindOf(info.TypeOf(rhs.X)) == "" {
					continue
				}
				if b := BaseString(rhs.X); b != "" {
					if canon, ok := aliases[b]; ok {
						b = canon
					}
					record(id.Name, b)
				}
			case *ast.Ident:
				if canon, ok := aliases[rhs.Name]; ok {
					record(id.Name, canon)
				}
			}
		}
	}
	// Two passes over the blocks so an alias copy sees its source even
	// when block order does not follow def order.
	for pass := 0; pass < 2; pass++ {
		for _, b := range g.Blocks {
			for _, n := range b.Nodes {
				ast.Inspect(n, func(node ast.Node) bool {
					if _, ok := node.(*ast.FuncLit); ok {
						return false
					}
					switch v := node.(type) {
					case *ast.AssignStmt:
						visit(v)
					case *ast.ValueSpec: // var m = &s.mu
						visit(&ast.AssignStmt{Lhs: identExprs(v.Names), Rhs: v.Values})
					}
					return true
				})
			}
		}
	}
	return aliases
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// canonLockKey resolves an alias lock key to its canonical form.
func canonLockKey(aliases map[string]string, base string) string {
	if canon, ok := aliases[base]; ok {
		return canon
	}
	return base
}

// ApplyLockOp updates the set for one decoded lock event.
func ApplyLockOp(set LockSet, base, op string) {
	switch op {
	case "Lock":
		set[base] = LockState{MayExcl: true, Must: true}
	case "RLock":
		set[base] = LockState{MayRead: true, Must: true}
	case "Unlock", "RUnlock":
		delete(set, base)
	}
}

// applyLockNode is the per-node transfer function. Only top-level lock
// calls in expression statements change the state; a defer of an Unlock
// keeps the lock held to function end (the deferred release runs at
// return, after every node of this graph).
func applyLockNode(info *types.Info, aliases map[string]string, n ast.Node, set LockSet) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return
	}
	if base, op, ok := LockEventOf(info, es.X); ok {
		ApplyLockOp(set, canonLockKey(aliases, base), op)
	}
}

// LockFlow is the solved lock dataflow of one function body: the lock
// instance of Flow, plus the alias map its events are keyed through.
type LockFlow struct {
	*Flow[LockSet]
	info *types.Info
	// aliases maps local mutex aliases (m := &s.mu) to canonical keys.
	aliases map[string]string
}

// SolveLockFlow runs the forward analysis over g with the given entry
// state (non-nil; empty for a function that starts lock-free).
func SolveLockFlow(g *CFG, info *types.Info, entry LockSet) *LockFlow {
	aliases := collectMutexAliases(info, g)
	flow := Solve(g, entry, Transfer[LockSet]{Node: func(n ast.Node, set LockSet) LockSet {
		applyLockNode(info, aliases, n, set)
		return set
	}})
	return &LockFlow{Flow: flow, info: info, aliases: aliases}
}

// EventOf decodes expr as a lock event like LockEventOf, additionally
// resolving local mutex aliases (m := &s.mu) to the canonical lock key
// the solved flow tracks. Checks that pair a decoded event with the
// flow's lock sets must use this, not LockEventOf, or an aliased
// critical section reads as two unrelated locks.
func (lf *LockFlow) EventOf(expr ast.Expr) (base, op string, ok bool) {
	base, op, ok = LockEventOf(lf.info, expr)
	if !ok {
		return "", "", false
	}
	return canonLockKey(lf.aliases, base), op, true
}

// DeferredUnlocks returns the lock keys released by deferred calls
// (defer x.mu.Unlock() or a deferred closure containing one), sorted.
func (lf *LockFlow) DeferredUnlocks() []string {
	seen := map[string]bool{}
	for _, d := range lf.g.Defers {
		if base, op, ok := lf.EventOf(d.Call); ok && (op == "Unlock" || op == "RUnlock") {
			seen[base] = true
			continue
		}
		if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
			for base := range closureUnlocks(lf.info, fl) {
				seen[base] = true
			}
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// closureUnlocks returns lock keys a function literal unlocks without
// first locking inside the literal — i.e. locks the closure releases on
// behalf of its creator — mapped to the unlock operation used. A deferred
// closure of this shape runs with the lock held, so analyses treat those
// locks as held at closure entry.
func closureUnlocks(info *types.Info, fl *ast.FuncLit) map[string]string {
	locked := map[string]bool{}
	out := map[string]string{}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != fl {
			return false
		}
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		base, op, ok := LockEventOf(info, es.X)
		if !ok {
			return true
		}
		switch op {
		case "Lock", "RLock":
			locked[base] = true
		case "Unlock", "RUnlock":
			if !locked[base] {
				if _, dup := out[base]; !dup {
					out[base] = op
				}
			}
		}
		return true
	})
	return out
}

// ClosureEntryLocks returns the lock set a deferred closure should be
// analyzed under: every lock it releases without first acquiring is
// assumed held at entry, in the mode matching the release (Unlock →
// exclusive, RUnlock → read).
func ClosureEntryLocks(info *types.Info, fl *ast.FuncLit) LockSet {
	entry := make(LockSet)
	for base, op := range closureUnlocks(info, fl) {
		if op == "RUnlock" {
			entry[base] = LockState{MayRead: true, Must: true}
		} else {
			entry[base] = LockState{MayExcl: true, Must: true}
		}
	}
	return entry
}
