package analysis

import (
	"go/ast"
	"go/token"
)

// CFG is an intraprocedural control-flow graph over one function body.
// Statements are grouped into basic blocks connected by Succs edges;
// branching statements (if/for/range/switch/select) split blocks, and
// break/continue/goto/return edges follow Go's semantics, including
// labeled loops. The graph is the substrate the dataflow solver
// (dataflow.go: reaching locks, pin states) iterates over.
//
// Two statement kinds get special handling because they change *when*
// code runs, not just whether:
//
//   - defer: the deferred call is recorded both as an in-block node (so
//     analyses observe registration order) and in Defers (so analyses can
//     model the function-exit execution of the deferred body).
//   - go: the spawned function runs concurrently; its body is not part of
//     this graph. GoBodies collects spawned function literals so callers
//     can build separate CFGs for them.
type CFG struct {
	// Blocks in construction order; Blocks[0] is the entry block.
	Blocks []*Block
	// Defers lists every defer statement, in source order.
	Defers []*ast.DeferStmt
	// GoBodies lists function literals launched with go statements, in
	// source order.
	GoBodies []*ast.FuncLit
	// DeferBodies lists function literals called directly by a defer
	// (defer func(){...}()), in source order.
	DeferBodies []*ast.FuncLit
}

// Block is one basic block: a maximal run of straight-line nodes.
type Block struct {
	Index int
	// Nodes holds the block's statements and control expressions (an if
	// condition, a switch tag) in execution order.
	Nodes []ast.Node
	// Succs are the possible next blocks. A block ending in return (or
	// falling off the function end) has none.
	Succs []*Block
	// Return marks a block terminated by a return statement.
	Return bool
	// Cond, when non-nil, is the two-way condition (of an if or a for)
	// the block ends in: Succs[0] is followed when it holds, Succs[1]
	// when it does not.
	Cond ast.Expr
}

// Entry returns the function entry block.
func (g *CFG) Entry() *Block { return g.Blocks[0] }

// BuildCFG constructs the control-flow graph of one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*labelTarget)}
	entry := b.newBlock()
	exit := b.stmtList(body.List, entry, branchCtx{})
	if exit != nil {
		// Falling off the end: implicit return.
		exit.Return = true
	}
	return b.g
}

type cfgBuilder struct {
	g      *CFG
	labels map[string]*labelTarget
	// pendingFallthrough is the block a `fallthrough` ended in, waiting to
	// be wired to the next case body.
	pendingFallthrough *Block
}

// labelTarget resolves a label to the blocks its break/continue/goto jump
// to. Blocks are created lazily: a goto may precede its label.
type labelTarget struct {
	// begin is the block the labeled statement starts in (goto target).
	begin *Block
	// brk and cont are the break/continue targets when the labeled
	// statement is a loop or switch.
	brk, cont *Block
	// pendingGoto collects blocks that jumped here before the label was
	// seen.
	pendingGoto []*Block
}

// branchCtx carries the innermost break/continue targets.
type branchCtx struct {
	brk, cont *Block
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmtList threads the statements through cur, returning the block control
// falls out of (nil if the list always transfers control away).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *Block, ctx branchCtx) *Block {
	for _, s := range stmts {
		if cur == nil {
			// Unreachable code after return/branch still gets blocks so
			// analyses can see its nodes, but nothing flows in.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur, ctx)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block, ctx branchCtx) *Block {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, v)
		cur.Return = true
		return nil
	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, v)
		switch v.Tok {
		case token.BREAK:
			if v.Label != nil {
				if lt := b.labels[v.Label.Name]; lt != nil {
					edge(cur, lt.brk)
				}
			} else {
				edge(cur, ctx.brk)
			}
		case token.CONTINUE:
			if v.Label != nil {
				if lt := b.labels[v.Label.Name]; lt != nil {
					edge(cur, lt.cont)
				}
			} else {
				edge(cur, ctx.cont)
			}
		case token.GOTO:
			lt := b.labelOf(v.Label.Name)
			if lt.begin != nil {
				edge(cur, lt.begin)
			} else {
				lt.pendingGoto = append(lt.pendingGoto, cur)
			}
		case token.FALLTHROUGH:
			// The switch construction wires this block to the next case.
			b.pendingFallthrough = cur
		}
		return nil
	case *ast.LabeledStmt:
		lt := b.labelOf(v.Label.Name)
		begin := b.newBlock()
		edge(cur, begin)
		lt.begin = begin
		for _, from := range lt.pendingGoto {
			edge(from, begin)
		}
		lt.pendingGoto = nil
		return b.labeledStmt(v, begin, ctx, lt)
	case *ast.BlockStmt:
		return b.stmtList(v.List, cur, ctx)
	case *ast.IfStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, ctx)
		}
		cur.Nodes = append(cur.Nodes, v.Cond)
		cur.Cond = v.Cond
		thenB := b.newBlock()
		edge(cur, thenB)
		thenOut := b.stmtList(v.Body.List, thenB, ctx)
		join := b.newBlock()
		edge(thenOut, join)
		if v.Else != nil {
			elseB := b.newBlock()
			edge(cur, elseB)
			elseOut := b.stmt(v.Else, elseB, ctx)
			edge(elseOut, join)
		} else {
			edge(cur, join)
		}
		return join
	case *ast.ForStmt:
		return b.forStmt(v, cur, nil)
	case *ast.RangeStmt:
		return b.rangeStmt(v, cur, nil)
	case *ast.SwitchStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, ctx)
		}
		if v.Tag != nil {
			cur.Nodes = append(cur.Nodes, v.Tag)
		}
		return b.caseClauses(v.Body, cur, ctx, hasDefaultCase(v.Body))
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, ctx)
		}
		cur.Nodes = append(cur.Nodes, v.Assign)
		return b.caseClauses(v.Body, cur, ctx, hasDefaultCase(v.Body))
	case *ast.SelectStmt:
		// Every select blocks until one comm proceeds; without a default
		// there is no fallthrough-without-a-case path.
		join := b.newBlock()
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			caseB := b.newBlock()
			edge(cur, caseB)
			if cc.Comm != nil {
				caseB = b.stmt(cc.Comm, caseB, ctx)
			}
			out := b.stmtList(cc.Body, caseB, branchCtx{brk: join, cont: ctx.cont})
			edge(out, join)
		}
		if len(v.Body.List) == 0 {
			edge(cur, join)
		}
		return join
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, v)
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			b.g.DeferBodies = append(b.g.DeferBodies, fl)
		}
		cur.Nodes = append(cur.Nodes, v)
		return cur
	case *ast.GoStmt:
		if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
			b.g.GoBodies = append(b.g.GoBodies, fl)
		}
		cur.Nodes = append(cur.Nodes, v)
		return cur
	default:
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// labeledStmt builds the statement under a label, wiring labeled
// break/continue targets when it is a loop or switch.
func (b *cfgBuilder) labeledStmt(v *ast.LabeledStmt, begin *Block, ctx branchCtx, lt *labelTarget) *Block {
	switch inner := v.Stmt.(type) {
	case *ast.ForStmt:
		return b.forStmt(inner, begin, lt)
	case *ast.RangeStmt:
		return b.rangeStmt(inner, begin, lt)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		join := b.newBlock()
		lt.brk = join
		out := b.stmt(v.Stmt, begin, ctx)
		edge(out, join)
		return join
	default:
		return b.stmt(v.Stmt, begin, ctx)
	}
}

func (b *cfgBuilder) labelOf(name string) *labelTarget {
	lt := b.labels[name]
	if lt == nil {
		lt = &labelTarget{}
		b.labels[name] = lt
	}
	return lt
}

func (b *cfgBuilder) forStmt(v *ast.ForStmt, cur *Block, lt *labelTarget) *Block {
	if v.Init != nil {
		cur = b.stmt(v.Init, cur, branchCtx{})
	}
	head := b.newBlock()
	edge(cur, head)
	if v.Cond != nil {
		head.Nodes = append(head.Nodes, v.Cond)
		head.Cond = v.Cond
	}
	exit := b.newBlock()
	post := b.newBlock()
	if lt != nil {
		lt.brk, lt.cont = exit, post
	}
	body := b.newBlock()
	edge(head, body)
	out := b.stmtList(v.Body.List, body, branchCtx{brk: exit, cont: post})
	edge(out, post)
	if v.Post != nil {
		b.stmt(v.Post, post, branchCtx{})
	}
	edge(post, head)
	if v.Cond != nil {
		edge(head, exit) // condition false
	}
	// A for{} with no condition only exits via break; exit may be
	// unreachable, which is fine.
	return exit
}

func (b *cfgBuilder) rangeStmt(v *ast.RangeStmt, cur *Block, lt *labelTarget) *Block {
	cur.Nodes = append(cur.Nodes, v.X)
	head := b.newBlock()
	edge(cur, head)
	exit := b.newBlock()
	if lt != nil {
		lt.brk, lt.cont = exit, head
	}
	body := b.newBlock()
	edge(head, body)
	edge(head, exit) // range exhausted
	out := b.stmtList(v.Body.List, body, branchCtx{brk: exit, cont: head})
	edge(out, head)
	return exit
}

// caseClauses wires a switch/type-switch body: each case flows from cur to
// its own block and out to a common join; without a default, cur also
// flows straight to the join.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, cur *Block, ctx branchCtx, exhaustive bool) *Block {
	join := b.newBlock()
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		caseB := b.newBlock()
		edge(cur, caseB)
		for _, e := range cc.List {
			caseB.Nodes = append(caseB.Nodes, e)
		}
		// A fallthrough at the end of the previous case jumps here.
		if b.pendingFallthrough != nil {
			edge(b.pendingFallthrough, caseB)
			b.pendingFallthrough = nil
		}
		out := b.stmtList(cc.Body, caseB, branchCtx{brk: join, cont: ctx.cont})
		edge(out, join)
	}
	b.pendingFallthrough = nil
	if !exhaustive {
		edge(cur, join)
	}
	return join
}

func hasDefaultCase(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if cc, ok := s.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}
