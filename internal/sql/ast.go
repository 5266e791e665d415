package sql

import (
	"strings"

	"recdb/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed scalar expression.
type Expr interface{ expr() }

// ---- Statements ----

// CreateTable is CREATE TABLE name (col type, ...).
type CreateTable struct {
	Name        string
	Cols        []ColumnDef
	IfNotExists bool
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	TypeName   string
	PrimaryKey bool
}

// DropTable is DROP TABLE name.
type DropTable struct {
	Name     string
	IfExists bool
}

// CreateIndex is CREATE INDEX name ON table (col).
type CreateIndex struct {
	Name   string
	Table  string
	Column string
}

// Insert is INSERT INTO table [(cols)] VALUES (...), (...).
type Insert struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

// Update is UPDATE table SET col=expr, ... [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause item.
type Assignment struct {
	Column string
	Value  Expr
}

// CreateRecommender is the paper's CREATE RECOMMENDER statement (§III-A):
//
//	CREATE RECOMMENDER name ON ratings
//	USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval
//	USING ItemCosCF
type CreateRecommender struct {
	Name      string
	Table     string
	UserCol   string
	ItemCol   string
	RatingCol string
	Algorithm string // empty means the default (ItemCosCF)
}

// DropRecommender is DROP RECOMMENDER name.
type DropRecommender struct {
	Name     string
	IfExists bool
}

// Begin is BEGIN [TRANSACTION] / START TRANSACTION: it opens an explicit
// multi-statement transaction whose writes become durable and visible to
// recovery only at COMMIT.
type Begin struct{}

// Commit is COMMIT [TRANSACTION]: it atomically makes every write of the
// open transaction durable.
type Commit struct{}

// Rollback is ROLLBACK [TRANSACTION]: it undoes every write of the open
// transaction.
type Rollback struct{}

// Select is a SELECT query, optionally carrying the RECOMMEND clause.
type Select struct {
	Distinct  bool
	Items     []SelectItem
	From      []TableRef
	Recommend *RecommendClause
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderItem
	Limit     Expr // nil when absent
	Offset    Expr // nil when absent
}

// Explain wraps a query whose plan should be described instead of run.
// With Analyze set (EXPLAIN ANALYZE), the query is also executed and the
// plan is annotated with actual per-operator row counts, loops, wall
// time, and buffer-pool statistics.
type Explain struct {
	Query   *Select
	Analyze bool
}

// SelectItem is one projection: expression plus optional alias, or star.
type SelectItem struct {
	Star  bool   // SELECT *
	Expr  Expr   // nil when Star
	Alias string // optional AS alias
}

// TableRef is one FROM entry: a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the name the table is visible under (alias or table name).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// RecommendClause is RECOMMEND item TO user ON rating USING alg (§III-B).
// The three references name columns of the ratings table in FROM.
type RecommendClause struct {
	Item      *ColumnRef
	User      *ColumnRef
	Rating    *ColumnRef
	Algorithm string
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*CreateTable) stmt()       {}
func (*Explain) stmt()           {}
func (*DropTable) stmt()         {}
func (*CreateIndex) stmt()       {}
func (*Insert) stmt()            {}
func (*Delete) stmt()            {}
func (*Update) stmt()            {}
func (*CreateRecommender) stmt() {}
func (*DropRecommender) stmt()   {}
func (*Select) stmt()            {}
func (*Begin) stmt()             {}
func (*Commit) stmt()            {}
func (*Rollback) stmt()          {}

// ---- Expressions ----

// Literal is a constant value.
type Literal struct {
	Value types.Value
}

// ColumnRef is a possibly-qualified column reference (r.uid or uid).
type ColumnRef struct {
	Qualifier string
	Name      string
}

// String renders the reference as written.
func (c *ColumnRef) String() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// BinaryOp identifies a binary operator.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Binary is a binary expression.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Unary is NOT expr or - expr.
type Unary struct {
	Op string // "NOT" or "-"
	X  Expr
}

// In is expr IN (e1, e2, ...) or expr NOT IN (...).
type In struct {
	X      Expr
	List   []Expr
	Negate bool
}

// Call is a function call: name(args...).
type Call struct {
	Name string
	Args []Expr
}

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// Like is expr [NOT] LIKE pattern ('%' any run, '_' one character).
type Like struct {
	X       Expr
	Pattern Expr
	Negate  bool
}

// Between is expr [NOT] BETWEEN lo AND hi (inclusive).
type Between struct {
	X      Expr
	Lo, Hi Expr
	Negate bool
}

// Star is the * argument of COUNT(*).
type Star struct{}

func (*Literal) expr()   {}
func (*ColumnRef) expr() {}
func (*Binary) expr()    {}
func (*Unary) expr()     {}
func (*In) expr()        {}
func (*Call) expr()      {}
func (*IsNull) expr()    {}
func (*Star) expr()      {}
func (*Like) expr()      {}
func (*Between) expr()   {}

// EqualFold compares SQL identifiers case-insensitively.
func EqualFold(a, b string) bool { return strings.EqualFold(a, b) }
