package sql

import (
	"fmt"
	"strconv"
	"strings"

	"recdb/internal/types"
)

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := newParser(input, toks)
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(wSemi)
	if !p.atEOF() {
		return nil, p.errorf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(input string) ([]Statement, error) {
	script, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	out := make([]Statement, len(script))
	for i, s := range script {
		out[i] = s.Stmt
	}
	return out, nil
}

// ScriptStmt pairs a parsed statement with its exact source text (no
// trailing semicolon), so callers that persist statements — the
// write-ahead log — can record what was executed verbatim.
type ScriptStmt struct {
	Stmt Statement
	Text string
}

// ParseScript parses a semicolon-separated script like ParseAll and also
// slices out each statement's source text by token offsets.
func ParseScript(input string) ([]ScriptStmt, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := newParser(input, toks)
	var out []ScriptStmt
	for {
		for p.accept(wSemi) {
		}
		if p.atEOF() {
			return out, nil
		}
		start := p.cur().Pos
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		// The statement's text ends where the next token (the semicolon or
		// EOF) begins.
		end := p.cur().Pos
		if end > len(input) {
			end = len(input)
		}
		out = append(out, ScriptStmt{Stmt: stmt, Text: strings.TrimSpace(input[start:end])})
		if !p.accept(wSemi) && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %s", p.peek())
		}
	}
}

// parser is one statement's (or script's) recursive descent over its
// tokens. Expression nodes come from slabs, and every list is sized by
// listLen before it is filled, so a statement costs a handful of
// allocations however many literals it carries.
type parser struct {
	src  string
	toks []Token
	pos  int

	lits slab[Literal]
	cols slab[ColumnRef]
	bins slab[Binary]
}

// newParser starts a parse of src's tokens. Literals and column
// references are counted off the tokens first, so each of those slabs is
// one allocation.
func newParser(src string, toks []Token) parser {
	p := parser{src: src, toks: toks}
	for i := range toks {
		switch t := &toks[i]; {
		case t.Kind == TokNumber || t.Kind == TokString || t.word == wTrue || t.word == wFalse || t.word == wNull:
			p.lits.next++
		case t.Kind == TokIdent && t.word == wNone:
			p.cols.next++ // a bound: a qualified reference takes two
		}
	}
	return p
}

// slab hands out nodes of one type from chunks it allocates: a first one
// of next nodes (four when nobody said), then doubling up to sixty-four a
// chunk. A node keeps its chunk alive, which costs nothing: a statement's
// nodes live and die together.
type slab[T any] struct {
	free []T
	next int
}

func (s *slab[T]) new() *T {
	if len(s.free) == 0 {
		n := s.next
		if n == 0 {
			n = 4
		}
		s.free = make([]T, n)
		s.next = min(2*n, 64)
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}

func (p *parser) lit(v types.Value) *Literal {
	l := p.lits.new()
	l.Value = v
	return l
}

func (p *parser) col(qualifier, name string) *ColumnRef {
	c := p.cols.new()
	c.Qualifier, c.Name = qualifier, name
	return c
}

func (p *parser) bin(op BinaryOp, l, r Expr) *Binary {
	b := p.bins.new()
	b.Op, b.L, b.R = op, l, r
	return b
}

func (p *parser) cur() *Token        { return &p.toks[p.pos] }
func (p *parser) peek() Token        { return p.toks[p.pos] }
func (p *parser) atEOF() bool        { return p.toks[p.pos].Kind == TokEOF }
func (p *parser) peekIs(w word) bool { return p.toks[p.pos].word == w }

func (p *parser) errorf(format string, args ...any) error {
	return errorAt(p.src, p.cur().Pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token when it is w: a keyword (an identifier
// spelling it in any case) or a symbol.
func (p *parser) accept(w word) bool {
	if p.toks[p.pos].word == w {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(w word) error {
	if !p.accept(w) {
		return p.errorf("expected %q, got %s", wordText[w], p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, got %s", *t)
	}
	p.pos++
	return t.Text, nil
}

// listLen is the capacity to give the comma-separated list that starts at
// the next token: one more than the commas outside parentheses before the
// list ends at an unmatched ')', a ';', the end of input or a clause
// keyword. It only sizes the slice; the parse decides the list.
func (p *parser) listLen() int {
	n, depth := 1, 0
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].word {
		case wLParen:
			depth++
		case wRParen:
			if depth == 0 {
				return n
			}
			depth--
		case wComma:
			if depth == 0 {
				n++
			}
		case wSemi, wFrom, wRecommend, wWhere, wGroup, wHaving, wOrder, wLimit, wOffset:
			if depth == 0 {
				return n
			}
		}
	}
	return n
}

func (p *parser) parseStatement() (Statement, error) {
	switch p.cur().word {
	case wCreate:
		p.pos++
		switch {
		case p.accept(wTable):
			return p.parseCreateTable()
		case p.accept(wIndex):
			return p.parseCreateIndex()
		case p.accept(wRecommender):
			return p.parseCreateRecommender()
		default:
			return nil, p.errorf("expected TABLE, INDEX, or RECOMMENDER after CREATE")
		}
	case wDrop:
		p.pos++
		switch {
		case p.accept(wTable):
			ifExists := p.acceptIfExists()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropTable{Name: name, IfExists: ifExists}, nil
		case p.accept(wRecommender):
			ifExists := p.acceptIfExists()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropRecommender{Name: name, IfExists: ifExists}, nil
		default:
			return nil, p.errorf("expected TABLE or RECOMMENDER after DROP")
		}
	case wBegin:
		p.pos++
		p.accept(wTransaction)
		return &Begin{}, nil
	case wStart:
		p.pos++
		if err := p.expect(wTransaction); err != nil {
			return nil, err
		}
		return &Begin{}, nil
	case wCommit:
		p.pos++
		p.accept(wTransaction)
		return &Commit{}, nil
	case wRollback:
		p.pos++
		p.accept(wTransaction)
		return &Rollback{}, nil
	case wInsert:
		p.pos++
		return p.parseInsert()
	case wDelete:
		p.pos++
		return p.parseDelete()
	case wUpdate:
		p.pos++
		return p.parseUpdate()
	case wSelect:
		p.pos++
		return p.parseSelect()
	case wExplain:
		p.pos++
		analyze := p.accept(wAnalyze)
		if err := p.expect(wSelect); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Explain{Query: sel, Analyze: analyze}, nil
	default:
		return nil, p.errorf("expected a statement, got %s", p.peek())
	}
}

func (p *parser) acceptIfExists() bool {
	if p.peekIs(wIf) {
		save := p.pos
		p.pos++
		if p.accept(wExists) {
			return true
		}
		p.pos = save
	}
	return false
}

func (p *parser) parseCreateTable() (*CreateTable, error) {
	ct := &CreateTable{}
	if p.peekIs(wIf) {
		save := p.pos
		p.pos++
		if p.accept(wNot) && p.accept(wExists) {
			ct.IfNotExists = true
		} else {
			p.pos = save
		}
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct.Name = name
	if err := p.expect(wLParen); err != nil {
		return nil, err
	}
	ct.Cols = make([]ColumnDef, 0, p.listLen())
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: col, TypeName: typ}
		if p.accept(wPrimary) {
			if err := p.expect(wKey); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		ct.Cols = append(ct.Cols, def)
		if p.accept(wComma) {
			continue
		}
		break
	}
	if err := p.expect(wRParen); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseCreateIndex() (*CreateIndex, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(wOn); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(wLParen); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(wRParen); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col}, nil
}

// parseCreateRecommender parses the tail of CREATE RECOMMENDER:
//
//	name ON table USERS FROM col ITEMS FROM col RATINGS FROM col
//	[USING alg]
//
// The paper's examples also write "ITEM FROM"; both spellings are accepted.
func (p *parser) parseCreateRecommender() (*CreateRecommender, error) {
	cr := &CreateRecommender{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cr.Name = name
	if err := p.expect(wOn); err != nil {
		return nil, err
	}
	if cr.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expect(wUsers); err != nil {
		return nil, err
	}
	if err := p.expect(wFrom); err != nil {
		return nil, err
	}
	if cr.UserCol, err = p.ident(); err != nil {
		return nil, err
	}
	if !p.accept(wItems) && !p.accept(wItem) {
		return nil, p.errorf("expected ITEMS, got %s", p.peek())
	}
	if err := p.expect(wFrom); err != nil {
		return nil, err
	}
	if cr.ItemCol, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expect(wRatings); err != nil {
		return nil, err
	}
	if err := p.expect(wFrom); err != nil {
		return nil, err
	}
	if cr.RatingCol, err = p.ident(); err != nil {
		return nil, err
	}
	if p.accept(wUsing) {
		if cr.Algorithm, err = p.ident(); err != nil {
			return nil, err
		}
	}
	return cr, nil
}

func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expect(wInto); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept(wLParen) {
		ins.Cols = make([]string, 0, p.listLen())
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if p.accept(wComma) {
				continue
			}
			break
		}
		if err := p.expect(wRParen); err != nil {
			return nil, err
		}
	}
	if err := p.expect(wValues); err != nil {
		return nil, err
	}
	ins.Rows = make([][]Expr, 0, p.listLen())
	for {
		if err := p.expect(wLParen); err != nil {
			return nil, err
		}
		row, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(wRParen); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(wComma) {
			continue
		}
		break
	}
	return ins, nil
}

// parseExprList parses one or more comma-separated expressions.
func (p *parser) parseExprList() ([]Expr, error) {
	list := make([]Expr, 0, p.listLen())
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(wComma) {
			return list, nil
		}
	}
}

func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expect(wFrom); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.accept(wWhere) {
		if d.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (p *parser) parseUpdate() (*Update, error) {
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: table}
	if err := p.expect(wSet); err != nil {
		return nil, err
	}
	u.Set = make([]Assignment, 0, p.listLen())
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(wEq); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: val})
		if p.accept(wComma) {
			continue
		}
		break
	}
	if p.accept(wWhere) {
		if u.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) parseSelect() (*Select, error) {
	s := &Select{}
	if p.accept(wDistinct) {
		s.Distinct = true
	}
	// Projection list.
	s.Items = make([]SelectItem, 0, p.listLen())
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.accept(wComma) {
			continue
		}
		break
	}
	if err := p.expect(wFrom); err != nil {
		return nil, err
	}
	s.From = make([]TableRef, 0, p.listLen())
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if p.accept(wComma) {
			continue
		}
		break
	}
	if p.accept(wRecommend) {
		rc, err := p.parseRecommendClause()
		if err != nil {
			return nil, err
		}
		s.Recommend = rc
	}
	if p.accept(wWhere) {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept(wGroup) {
		if err := p.expect(wBy); err != nil {
			return nil, err
		}
		g, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		s.GroupBy = g
	}
	if p.accept(wHaving) {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept(wOrder) {
		if err := p.expect(wBy); err != nil {
			return nil, err
		}
		s.OrderBy = make([]OrderItem, 0, p.listLen())
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(wDesc) {
				item.Desc = true
			} else {
				p.accept(wAsc)
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.accept(wComma) {
				continue
			}
			break
		}
	}
	if p.accept(wLimit) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.accept(wOffset) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept(wStar) {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(wAs) {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.cur(); aliasable(t) {
		item.Alias = t.Text
		p.pos++
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	table, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: table}
	if p.accept(wAs) {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if t := p.cur(); aliasable(t) {
		ref.Alias = t.Text
		p.pos++
	}
	return ref, nil
}

// parseRecommendClause parses the tail of:
//
//	RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
func (p *parser) parseRecommendClause() (*RecommendClause, error) {
	rc := &RecommendClause{}
	var err error
	if rc.Item, err = p.parseColumnRef(); err != nil {
		return nil, err
	}
	if err := p.expect(wTo); err != nil {
		return nil, err
	}
	if rc.User, err = p.parseColumnRef(); err != nil {
		return nil, err
	}
	if err := p.expect(wOn); err != nil {
		return nil, err
	}
	if rc.Rating, err = p.parseColumnRef(); err != nil {
		return nil, err
	}
	if p.accept(wUsing) {
		if rc.Algorithm, err = p.ident(); err != nil {
			return nil, err
		}
	}
	return rc, nil
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.accept(wDot) {
		second, err := p.ident()
		if err != nil {
			return nil, err
		}
		return p.col(first, second), nil
	}
	return p.col("", first), nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(wOr) {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.bin(OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(wAnd) {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.bin(OpAnd, l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(wNot) {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

// comparisonOps maps each comparison symbol to its operator.
var comparisonOps = [numWords]BinaryOp{
	wLe: OpLe, wGe: OpGe, wNe: OpNe, wBangEq: OpNe, wEq: OpEq, wLt: OpLt, wGt: OpGt,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// One look at the next token picks the alternative; most expressions
	// (a list element, a select item) are followed by none of them.
	negate := false
	switch w := p.cur().word; w {
	case wIs:
		// IS [NOT] NULL
		p.pos++
		neg := p.accept(wNot)
		if err := p.expect(wNull); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	case wNot:
		// NOT IN / LIKE / BETWEEN; any other NOT is not ours.
		switch p.toks[p.pos+1].word {
		case wIn, wLike, wBetween:
			p.pos++
			negate = true
		default:
			return l, nil
		}
	case wIn, wLike, wBetween:
	case wLe, wGe, wNe, wBangEq, wEq, wLt, wGt:
		p.pos++
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return p.bin(comparisonOps[w], l, r), nil
	default:
		return l, nil
	}
	op := p.cur().word // LIKE, BETWEEN or IN
	p.pos++
	switch op {
	case wLike:
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: pat, Negate: negate}, nil
	case wBetween:
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect(wAnd); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Negate: negate}, nil
	default: // IN
		if err := p.expect(wLParen); err != nil {
			return nil, err
		}
		list, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(wRParen); err != nil {
			return nil, err
		}
		return &In{X: l, List: list, Negate: negate}, nil
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		op := OpAdd
		switch p.cur().word {
		case wPlus:
		case wMinus:
			op = OpSub
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = p.bin(op, l, r)
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := OpMul
		switch p.cur().word {
		case wStar:
		case wSlash:
			op = OpDiv
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = p.bin(op, l, r)
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(wMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// A negated number literal is folded into it: the node is this
		// parse's own, so it is rewritten in place.
		if lit, ok := x.(*Literal); ok {
			if f, isF := lit.Value.AsFloat(); isF && lit.Value.Kind() == types.KindFloat {
				// 0 - f, not -f: -0.0 would render "-0", which reads back
				// as the integer 0.
				lit.Value = types.NewFloat(0 - f)
				return lit, nil
			}
			if i, isI := lit.Value.AsInt(); isI && lit.Value.Kind() == types.KindInt {
				lit.Value = types.NewInt(-i)
				return lit, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if t.float {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return p.lit(types.NewFloat(f)), nil
		}
		i, err := parseInt(t.Text)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.Text)
		}
		return p.lit(types.NewInt(i)), nil
	case TokString:
		p.pos++
		return p.lit(types.NewText(t.Text)), nil
	case TokIdent:
		switch t.word {
		case wTrue:
			p.pos++
			return p.lit(types.NewBool(true)), nil
		case wFalse:
			p.pos++
			return p.lit(types.NewBool(false)), nil
		case wNull:
			p.pos++
			return p.lit(types.Null()), nil
		}
		p.pos++
		name := t.Text
		switch p.cur().word {
		case wLParen: // a function call
			p.pos++
			call := &Call{Name: name}
			if p.accept(wStar) {
				if err := p.expect(wRParen); err != nil {
					return nil, err
				}
				call.Args = []Expr{&Star{}}
				return call, nil
			}
			if !p.accept(wRParen) {
				args, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				if err := p.expect(wRParen); err != nil {
					return nil, err
				}
				call.Args = args
			}
			return call, nil
		case wDot:
			p.pos++
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return p.col(name, col), nil
		}
		return p.col("", name), nil
	case TokSymbol:
		if t.word == wLParen {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(wRParen); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("expected expression, got %s", *t)
}

// parseInt reads an integer token's digits: eighteen of them cannot
// overflow, and anything longer is strconv's to judge.
func parseInt(digits string) (int64, error) {
	if len(digits) > 18 {
		return strconv.ParseInt(digits, 10, 64)
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		n = 10*n + int64(digits[i]-'0')
	}
	return n, nil
}
