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
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(";")
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
	p := &parser{toks: toks}
	var out []ScriptStmt
	for {
		for p.accept(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		start := p.peek().Pos
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		// The statement's text ends where the next token (the semicolon or
		// EOF) begins.
		end := p.peek().Pos
		if end > len(input) {
			end = len(input)
		}
		out = append(out, ScriptStmt{Stmt: stmt, Text: strings.TrimSpace(input[start:end])})
		if !p.accept(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %s", p.peek())
		}
	}
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	t := p.peek()
	return &ParseError{Msg: fmt.Sprintf(format, args...), Line: t.Line, Col: t.Col}
}

// accept consumes the next token when it matches word (a keyword, matched
// case-insensitively against identifiers, or a symbol).
func (p *parser) accept(word string) bool {
	t := p.peek()
	switch t.Kind {
	case TokIdent:
		if strings.EqualFold(t.Text, word) {
			p.pos++
			return true
		}
	case TokSymbol:
		if t.Text == word {
			p.pos++
			return true
		}
	}
	return false
}

func (p *parser) expect(word string) error {
	if !p.accept(word) {
		return p.errorf("expected %q, got %s", word, p.peek())
	}
	return nil
}

func (p *parser) peekIs(word string) bool {
	t := p.peek()
	return (t.Kind == TokIdent && strings.EqualFold(t.Text, word)) ||
		(t.Kind == TokSymbol && t.Text == word)
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, got %s", t)
	}
	p.pos++
	return t.Text, nil
}

var reservedAliasWords = map[string]bool{
	"where": true, "recommend": true, "order": true, "limit": true,
	"group": true, "having": true, "on": true, "using": true, "set": true,
	"from": true, "to": true, "and": true, "or": true, "not": true,
	"inner": true, "join": true, "values": true, "as": true, "asc": true,
	"desc": true, "in": true, "is": true, "like": true, "between": true, "offset": true, "select": true, "distinct": true, "explain": true,
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.accept("CREATE"):
		switch {
		case p.accept("TABLE"):
			return p.parseCreateTable()
		case p.accept("INDEX"):
			return p.parseCreateIndex()
		case p.accept("RECOMMENDER"):
			return p.parseCreateRecommender()
		default:
			return nil, p.errorf("expected TABLE, INDEX, or RECOMMENDER after CREATE")
		}
	case p.accept("DROP"):
		switch {
		case p.accept("TABLE"):
			ifExists := p.acceptIfExists()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropTable{Name: name, IfExists: ifExists}, nil
		case p.accept("RECOMMENDER"):
			ifExists := p.acceptIfExists()
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &DropRecommender{Name: name, IfExists: ifExists}, nil
		default:
			return nil, p.errorf("expected TABLE or RECOMMENDER after DROP")
		}
	case p.accept("BEGIN"):
		p.accept("TRANSACTION")
		return &Begin{}, nil
	case p.accept("START"):
		if err := p.expect("TRANSACTION"); err != nil {
			return nil, err
		}
		return &Begin{}, nil
	case p.accept("COMMIT"):
		p.accept("TRANSACTION")
		return &Commit{}, nil
	case p.accept("ROLLBACK"):
		p.accept("TRANSACTION")
		return &Rollback{}, nil
	case p.accept("INSERT"):
		return p.parseInsert()
	case p.accept("DELETE"):
		return p.parseDelete()
	case p.accept("UPDATE"):
		return p.parseUpdate()
	case p.accept("SELECT"):
		return p.parseSelect()
	case p.accept("EXPLAIN"):
		analyze := p.accept("ANALYZE")
		if err := p.expect("SELECT"); err != nil {
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
	if p.peekIs("IF") {
		save := p.pos
		p.pos++
		if p.accept("EXISTS") {
			return true
		}
		p.pos = save
	}
	return false
}

func (p *parser) parseCreateTable() (*CreateTable, error) {
	ct := &CreateTable{}
	if p.peekIs("IF") {
		save := p.pos
		p.pos++
		if p.accept("NOT") && p.accept("EXISTS") {
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
	if err := p.expect("("); err != nil {
		return nil, err
	}
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
		if p.accept("PRIMARY") {
			if err := p.expect("KEY"); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		ct.Cols = append(ct.Cols, def)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseCreateIndex() (*CreateIndex, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col}, nil
}

// parseCreateRecommender parses the tail of CREATE RECOMMENDER:
//
//	name ON table USERS FROM col ITEMS FROM col RATINGS FROM col
//	[USING alg] [WITH WORKERS n]
//
// The paper's examples also write "ITEM FROM"; both spellings are accepted.
func (p *parser) parseCreateRecommender() (*CreateRecommender, error) {
	cr := &CreateRecommender{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cr.Name = name
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	if cr.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expect("USERS"); err != nil {
		return nil, err
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	if cr.UserCol, err = p.ident(); err != nil {
		return nil, err
	}
	if !p.accept("ITEMS") && !p.accept("ITEM") {
		return nil, p.errorf("expected ITEMS, got %s", p.peek())
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	if cr.ItemCol, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expect("RATINGS"); err != nil {
		return nil, err
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	if cr.RatingCol, err = p.ident(); err != nil {
		return nil, err
	}
	if p.accept("USING") {
		if cr.Algorithm, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if p.accept("WITH") {
		if err := p.expect("WORKERS"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.Kind != TokNumber {
			return nil, p.errorf("expected worker count, got %s", t)
		}
		n, err := strconv.ParseInt(t.Text, 10, 32)
		if err != nil || n < 1 {
			return nil, p.errorf("WORKERS needs a positive integer, got %s", t.Text)
		}
		p.pos++
		cr.Workers = int(n)
	}
	return cr, nil
}

func (p *parser) parseInsert() (*Insert, error) {
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.accept("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, col)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.accept(",") {
			continue
		}
		break
	}
	return ins, nil
}

func (p *parser) parseDelete() (*Delete, error) {
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.accept("WHERE") {
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
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: val})
		if p.accept(",") {
			continue
		}
		break
	}
	if p.accept("WHERE") {
		if u.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) parseSelect() (*Select, error) {
	s := &Select{}
	if p.accept("DISTINCT") {
		s.Distinct = true
	}
	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, ref)
		if p.accept(",") {
			continue
		}
		break
	}
	if p.accept("RECOMMEND") {
		rc, err := p.parseRecommendClause()
		if err != nil {
			return nil, err
		}
		s.Recommend = rc
	}
	if p.accept("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.accept("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if p.accept(",") {
				continue
			}
			break
		}
	}
	if p.accept("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.accept("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.accept("*") {
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept("AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if t := p.peek(); t.Kind == TokIdent && !reservedAliasWords[strings.ToLower(t.Text)] {
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
	if p.accept("AS") {
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if t := p.peek(); t.Kind == TokIdent && !reservedAliasWords[strings.ToLower(t.Text)] {
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
	if err := p.expect("TO"); err != nil {
		return nil, err
	}
	if rc.User, err = p.parseColumnRef(); err != nil {
		return nil, err
	}
	if err := p.expect("ON"); err != nil {
		return nil, err
	}
	if rc.Rating, err = p.parseColumnRef(); err != nil {
		return nil, err
	}
	if p.accept("USING") {
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
	if p.accept(".") {
		second, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Qualifier: first, Name: second}, nil
	}
	return &ColumnRef{Name: first}, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept("IS") {
		neg := p.accept("NOT")
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	}
	// [NOT] IN / LIKE / BETWEEN
	negIn := false
	if p.peekIs("NOT") {
		save := p.pos
		p.pos++
		if p.peekIs("IN") || p.peekIs("LIKE") || p.peekIs("BETWEEN") {
			negIn = true
		} else {
			p.pos = save
		}
	}
	if p.accept("LIKE") {
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Like{X: l, Pattern: pat, Negate: negIn}, nil
	}
	if p.accept("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Negate: negIn}, nil
	}
	if p.accept("IN") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.accept(",") {
				continue
			}
			break
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &In{X: l, List: list, Negate: negIn}, nil
	}
	ops := []struct {
		text string
		op   BinaryOp
	}{
		{"<=", OpLe}, {">=", OpGe}, {"<>", OpNe}, {"!=", OpNe},
		{"=", OpEq}, {"<", OpLt}, {">", OpGt},
	}
	for _, o := range ops {
		if p.accept(o.text) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: o.op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpAdd, L: l, R: r}
		case p.accept("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpMul, L: l, R: r}
		case p.accept("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: OpDiv, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			if f, isF := lit.Value.AsFloat(); isF && lit.Value.Kind() == types.KindFloat {
				// 0 - f, not -f: -0.0 would render "-0", which reads back
				// as the integer 0.
				return &Literal{Value: types.NewFloat(0 - f)}, nil
			}
			if i, isI := lit.Value.AsInt(); isI && lit.Value.Kind() == types.KindInt {
				return &Literal{Value: types.NewInt(-i)}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &Literal{Value: types.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.Text)
		}
		return &Literal{Value: types.NewInt(i)}, nil
	case TokString:
		p.pos++
		return &Literal{Value: types.NewText(t.Text)}, nil
	case TokIdent:
		switch strings.ToUpper(t.Text) {
		case "TRUE":
			p.pos++
			return &Literal{Value: types.NewBool(true)}, nil
		case "FALSE":
			p.pos++
			return &Literal{Value: types.NewBool(false)}, nil
		case "NULL":
			p.pos++
			return &Literal{Value: types.Null()}, nil
		}
		name, _ := p.ident()
		// Function call?
		if p.peekIs("(") {
			p.pos++
			call := &Call{Name: name}
			if p.peekIs("*") {
				p.pos++
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				call.Args = append(call.Args, &Star{})
				return call, nil
			}
			if !p.accept(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if p.accept(",") {
						continue
					}
					break
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		if p.accept(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qualifier: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil
	case TokSymbol:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("expected expression, got %s", t)
}
