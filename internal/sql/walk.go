package sql

import "strings"

// Walk calls fn on e and then on every sub-expression of e, parents
// first. It is the one traversal of the expression AST: the planner, the
// aggregate rewrite and the shard router all classify expressions through
// it, so a new Expr node is taught to one switch.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch v := e.(type) {
	case *Binary:
		Walk(v.L, fn)
		Walk(v.R, fn)
	case *Unary:
		Walk(v.X, fn)
	case *In:
		Walk(v.X, fn)
		for _, item := range v.List {
			Walk(item, fn)
		}
	case *Call:
		for _, a := range v.Args {
			Walk(a, fn)
		}
	case *IsNull:
		Walk(v.X, fn)
	case *Like:
		Walk(v.X, fn)
		Walk(v.Pattern, fn)
	case *Between:
		Walk(v.X, fn)
		Walk(v.Lo, fn)
		Walk(v.Hi, fn)
	}
}

// Conjuncts flattens a WHERE tree into its AND-connected conjuncts, left
// to right; a nil tree has none. The planner places each conjunct and the
// shard router looks among them for a user-key predicate.
func Conjuncts(where Expr) []Expr {
	if where == nil {
		return nil
	}
	if b, ok := where.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{where}
}

// AggKind identifies an aggregate function.
type AggKind int

// The supported aggregates.
const (
	AggCountStar AggKind = iota // COUNT(*)
	AggCount                    // COUNT(expr): non-NULL values
	AggSum
	AggAvg
	AggMin
	AggMax
)

// aggregates is the one table of aggregate function names. The planner
// (which builds a HashAggregate for one) and the shard router (which
// refuses to scatter one) must agree on this set, so it is defined here,
// below both.
var aggregates = map[string]AggKind{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
}

// Aggregate returns the kind of aggregate function name names, in any
// case; ok is false when it names none. COUNT is AggCount whatever its
// argument: telling COUNT(*) apart is the planner's business.
func Aggregate(name string) (kind AggKind, ok bool) {
	kind, ok = aggregates[strings.ToLower(name)]
	return kind, ok
}

// IsAggregate reports whether name, in any case, names an aggregate
// function.
func IsAggregate(name string) bool {
	_, ok := Aggregate(name)
	return ok
}

// ContainsAggregate reports whether an aggregate call occurs anywhere in e.
func ContainsAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) {
		if c, ok := n.(*Call); ok && IsAggregate(c.Name) {
			found = true
		}
	})
	return found
}
