// Package expr compiles parsed SQL expressions against a row schema into
// evaluable closures. It implements SQL three-valued logic for AND/OR/NOT,
// NULL propagation in arithmetic and comparisons, and the scalar function
// registry (including the PostGIS-style spatial functions the case study
// uses: ST_Contains, ST_DWithin, ST_Distance, and the combined-score
// function CScore from Query 8).
package expr

import (
	"fmt"
	"math"
	"strings"

	"recdb/internal/geo"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// Compiled is an expression evaluable against a row.
type Compiled func(row types.Row) (types.Value, error)

// Compile resolves column references in e against schema and returns an
// evaluator. Compilation fails on unknown or ambiguous columns and unknown
// functions, so errors surface at plan time rather than per row.
func Compile(e sql.Expr, schema *types.Schema) (Compiled, error) {
	switch v := e.(type) {
	case *sql.Literal:
		val := v.Value
		return func(types.Row) (types.Value, error) { return val, nil }, nil

	case *sql.ColumnRef:
		idx, err := schema.Resolve(v.Qualifier, v.Name)
		if err != nil {
			return nil, err
		}
		return func(row types.Row) (types.Value, error) {
			if idx >= len(row) {
				return types.Null(), fmt.Errorf("expr: row too short for column %s", v)
			}
			return row[idx], nil
		}, nil

	case *sql.Unary:
		x, err := Compile(v.X, schema)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "NOT":
			return func(row types.Row) (types.Value, error) {
				val, err := x(row)
				if err != nil {
					return types.Null(), err
				}
				if val.IsNull() {
					return types.Null(), nil
				}
				if val.Kind() != types.KindBool {
					return types.Null(), fmt.Errorf("expr: NOT applied to %s", val.Kind())
				}
				return types.NewBool(!val.Bool()), nil
			}, nil
		case "-":
			return func(row types.Row) (types.Value, error) {
				val, err := x(row)
				if err != nil {
					return types.Null(), err
				}
				if val.IsNull() {
					return types.Null(), nil
				}
				switch val.Kind() {
				case types.KindInt:
					return types.NewInt(-val.Int()), nil
				case types.KindFloat:
					return types.NewFloat(-val.Float()), nil
				}
				return types.Null(), fmt.Errorf("expr: unary minus on %s", val.Kind())
			}, nil
		default:
			return nil, fmt.Errorf("expr: unknown unary operator %q", v.Op)
		}

	case *sql.Binary:
		l, err := Compile(v.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := Compile(v.R, schema)
		if err != nil {
			return nil, err
		}
		return compileBinary(v.Op, l, r)

	case *sql.In:
		x, err := Compile(v.X, schema)
		if err != nil {
			return nil, err
		}
		list := make([]Compiled, len(v.List))
		for i, item := range v.List {
			if list[i], err = Compile(item, schema); err != nil {
				return nil, err
			}
		}
		neg := v.Negate
		if set, ok := constantSet(v.List, list); ok {
			return func(row types.Row) (types.Value, error) {
				val, err := x(row)
				switch {
				case err != nil:
					return types.Null(), err
				case val.IsNull():
					return types.Null(), nil
				case set.has(val):
					return types.NewBool(!neg), nil
				case set.null:
					return types.Null(), nil
				}
				return types.NewBool(neg), nil
			}, nil
		}
		return func(row types.Row) (types.Value, error) {
			val, err := x(row)
			if err != nil {
				return types.Null(), err
			}
			if val.IsNull() {
				return types.Null(), nil
			}
			sawNull := false
			for _, item := range list {
				iv, err := item(row)
				if err != nil {
					return types.Null(), err
				}
				if iv.IsNull() {
					sawNull = true
					continue
				}
				if types.Equal(val, iv) {
					return types.NewBool(!neg), nil
				}
			}
			if sawNull {
				return types.Null(), nil
			}
			return types.NewBool(neg), nil
		}, nil

	case *sql.IsNull:
		x, err := Compile(v.X, schema)
		if err != nil {
			return nil, err
		}
		neg := v.Negate
		return func(row types.Row) (types.Value, error) {
			val, err := x(row)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool(val.IsNull() != neg), nil
		}, nil

	case *sql.Like:
		x, err := Compile(v.X, schema)
		if err != nil {
			return nil, err
		}
		pat, err := Compile(v.Pattern, schema)
		if err != nil {
			return nil, err
		}
		neg := v.Negate
		return func(row types.Row) (types.Value, error) {
			xv, err := x(row)
			if err != nil {
				return types.Null(), err
			}
			pv, err := pat(row)
			if err != nil {
				return types.Null(), err
			}
			if xv.IsNull() || pv.IsNull() {
				return types.Null(), nil
			}
			if xv.Kind() != types.KindText || pv.Kind() != types.KindText {
				return types.Null(), fmt.Errorf("expr: LIKE needs text operands")
			}
			return types.NewBool(likeMatch(xv.Text(), pv.Text()) != neg), nil
		}, nil

	case *sql.Between:
		x, err := Compile(v.X, schema)
		if err != nil {
			return nil, err
		}
		lo, err := Compile(v.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := Compile(v.Hi, schema)
		if err != nil {
			return nil, err
		}
		neg := v.Negate
		return func(row types.Row) (types.Value, error) {
			xv, err := x(row)
			if err != nil {
				return types.Null(), err
			}
			lov, err := lo(row)
			if err != nil {
				return types.Null(), err
			}
			hiv, err := hi(row)
			if err != nil {
				return types.Null(), err
			}
			if xv.IsNull() || lov.IsNull() || hiv.IsNull() {
				return types.Null(), nil
			}
			cl, err := types.Compare(xv, lov)
			if err != nil {
				return types.Null(), err
			}
			ch, err := types.Compare(xv, hiv)
			if err != nil {
				return types.Null(), err
			}
			return types.NewBool((cl >= 0 && ch <= 0) != neg), nil
		}, nil

	case *sql.Call:
		fn, ok := functions[strings.ToLower(v.Name)]
		if !ok {
			return nil, fmt.Errorf("expr: unknown function %q", v.Name)
		}
		if fn.arity >= 0 && fn.arity != len(v.Args) {
			return nil, fmt.Errorf("expr: %s expects %d arguments, got %d", v.Name, fn.arity, len(v.Args))
		}
		args := make([]Compiled, len(v.Args))
		var err error
		for i, a := range v.Args {
			if args[i], err = Compile(a, schema); err != nil {
				return nil, err
			}
		}
		impl := fn.impl
		name := v.Name
		return func(row types.Row) (types.Value, error) {
			vals := make([]types.Value, len(args))
			for i, a := range args {
				if vals[i], err = a(row); err != nil {
					return types.Null(), err
				}
			}
			out, err := impl(vals)
			if err != nil {
				return types.Null(), fmt.Errorf("expr: %s: %w", name, err)
			}
			return out, nil
		}, nil
	}
	return nil, fmt.Errorf("expr: unsupported expression node %T", e)
}

// valueSet is an IN list of constants, hashed once at compile time so a
// row probes it in O(1) instead of comparing against every item. A probe
// is in the set when types.Equal finds it equal to a member, as the
// item-by-item loop would: Hash agrees with Equal across the numeric kinds
// (NaN included) and a bucket is rechecked with Equal.
type valueSet struct {
	buckets map[uint64][]types.Value
	null    bool // a member is NULL: a miss is NULL, not false
}

// constantSet returns the set of an IN list whose items are all
// constants — literals, or negated literals — given the list compiled;
// false when an item reads the row or does not evaluate.
func constantSet(items []sql.Expr, compiled []Compiled) (*valueSet, bool) {
	set := &valueSet{buckets: make(map[uint64][]types.Value, len(items))}
	for i, item := range items {
		if !isConstant(item) {
			return nil, false
		}
		c, err := compiled[i](nil)
		if err != nil {
			return nil, false
		}
		if c.IsNull() {
			set.null = true
			continue
		}
		h := c.Hash()
		set.buckets[h] = append(set.buckets[h], c)
	}
	return set, true
}

// isConstant reports whether e reads nothing from the row: a literal, or
// a negated constant.
func isConstant(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.Literal:
		return true
	case *sql.Unary:
		return v.Op == "-" && isConstant(v.X)
	}
	return false
}

// has reports whether v, not NULL, equals a member of the set.
func (s *valueSet) has(v types.Value) bool {
	for _, c := range s.buckets[v.Hash()] {
		if types.Equal(v, c) {
			return true
		}
	}
	return false
}

func compileBinary(op sql.BinaryOp, l, r Compiled) (Compiled, error) {
	switch op {
	case sql.OpAnd:
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			// Three-valued AND with short circuit on FALSE.
			if !lv.IsNull() && lv.Kind() == types.KindBool && !lv.Bool() {
				return types.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			lb, lok := boolOrNull(lv)
			rb, rok := boolOrNull(rv)
			if !lok || !rok {
				return types.Null(), fmt.Errorf("expr: AND over non-boolean operands")
			}
			switch {
			case lb == tvFalse || rb == tvFalse:
				return types.NewBool(false), nil
			case lb == tvNull || rb == tvNull:
				return types.Null(), nil
			default:
				return types.NewBool(true), nil
			}
		}, nil
	case sql.OpOr:
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			if !lv.IsNull() && lv.Kind() == types.KindBool && lv.Bool() {
				return types.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			lb, lok := boolOrNull(lv)
			rb, rok := boolOrNull(rv)
			if !lok || !rok {
				return types.Null(), fmt.Errorf("expr: OR over non-boolean operands")
			}
			switch {
			case lb == tvTrue || rb == tvTrue:
				return types.NewBool(true), nil
			case lb == tvNull || rb == tvNull:
				return types.Null(), nil
			default:
				return types.NewBool(false), nil
			}
		}, nil
	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			c, err := types.Compare(lv, rv)
			if err != nil {
				return types.Null(), err
			}
			var out bool
			switch op {
			case sql.OpEq:
				out = c == 0
			case sql.OpNe:
				out = c != 0
			case sql.OpLt:
				out = c < 0
			case sql.OpLe:
				out = c <= 0
			case sql.OpGt:
				out = c > 0
			case sql.OpGe:
				out = c >= 0
			}
			return types.NewBool(out), nil
		}, nil
	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv:
		return func(row types.Row) (types.Value, error) {
			lv, err := l(row)
			if err != nil {
				return types.Null(), err
			}
			rv, err := r(row)
			if err != nil {
				return types.Null(), err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null(), nil
			}
			// Text concatenation with +.
			if op == sql.OpAdd && lv.Kind() == types.KindText && rv.Kind() == types.KindText {
				return types.NewText(lv.Text() + rv.Text()), nil
			}
			lf, lok := lv.AsFloat()
			rf, rok := rv.AsFloat()
			if !lok || !rok {
				return types.Null(), fmt.Errorf("expr: arithmetic %s over %s and %s", op, lv.Kind(), rv.Kind())
			}
			bothInt := lv.Kind() == types.KindInt && rv.Kind() == types.KindInt
			switch op {
			case sql.OpAdd:
				if bothInt {
					return types.NewInt(lv.Int() + rv.Int()), nil
				}
				return types.NewFloat(lf + rf), nil
			case sql.OpSub:
				if bothInt {
					return types.NewInt(lv.Int() - rv.Int()), nil
				}
				return types.NewFloat(lf - rf), nil
			case sql.OpMul:
				if bothInt {
					return types.NewInt(lv.Int() * rv.Int()), nil
				}
				return types.NewFloat(lf * rf), nil
			default: // OpDiv
				if rf == 0 {
					return types.Null(), fmt.Errorf("expr: division by zero")
				}
				if bothInt {
					return types.NewInt(lv.Int() / rv.Int()), nil
				}
				return types.NewFloat(lf / rf), nil
			}
		}, nil
	}
	return nil, fmt.Errorf("expr: unknown binary operator %v", op)
}

type tv int

const (
	tvFalse tv = iota
	tvTrue
	tvNull
)

func boolOrNull(v types.Value) (tv, bool) {
	if v.IsNull() {
		return tvNull, true
	}
	if v.Kind() != types.KindBool {
		return tvFalse, false
	}
	if v.Bool() {
		return tvTrue, true
	}
	return tvFalse, true
}

// Truthy reports whether a WHERE-style predicate value admits the row
// (NULL and FALSE both reject).
func Truthy(v types.Value) bool {
	return !v.IsNull() && v.Kind() == types.KindBool && v.Bool()
}

// likeMatch implements SQL LIKE: '%' matches any run (including empty),
// '_' matches exactly one byte. Matching is case-sensitive, like
// PostgreSQL's LIKE.
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking on the last '%'.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// ---- Scalar function registry ----

type function struct {
	arity int // -1 = variadic
	impl  func(args []types.Value) (types.Value, error)
}

var functions = map[string]function{
	"abs": {1, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		switch a[0].Kind() {
		case types.KindInt:
			v := a[0].Int()
			if v < 0 {
				v = -v
			}
			return types.NewInt(v), nil
		case types.KindFloat:
			return types.NewFloat(math.Abs(a[0].Float())), nil
		}
		return types.Null(), fmt.Errorf("ABS of %s", a[0].Kind())
	}},
	"lower": {1, textFn(strings.ToLower)},
	"upper": {1, textFn(strings.ToUpper)},
	"length": {1, func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		if a[0].Kind() != types.KindText {
			return types.Null(), fmt.Errorf("LENGTH of %s", a[0].Kind())
		}
		return types.NewInt(int64(len(a[0].Text()))), nil
	}},
	"round": {1, func(a []types.Value) (types.Value, error) {
		f, ok := a[0].AsFloat()
		if !ok {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("ROUND of %s", a[0].Kind())
		}
		return types.NewFloat(math.Round(f)), nil
	}},
	"sqrt": {1, func(a []types.Value) (types.Value, error) {
		f, ok := a[0].AsFloat()
		if !ok {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("SQRT of %s", a[0].Kind())
		}
		if f < 0 {
			return types.Null(), fmt.Errorf("SQRT of negative value")
		}
		return types.NewFloat(math.Sqrt(f)), nil
	}},
	"coalesce": {-1, func(a []types.Value) (types.Value, error) {
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null(), nil
	}},
	"floor": {1, numericFn("FLOOR", math.Floor)},
	"ceil":  {1, numericFn("CEIL", math.Ceil)},
	"exp":   {1, numericFn("EXP", math.Exp)},
	"ln": {1, func(a []types.Value) (types.Value, error) {
		f, ok := a[0].AsFloat()
		if !ok {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("LN of %s", a[0].Kind())
		}
		if f <= 0 {
			return types.Null(), fmt.Errorf("LN of non-positive value")
		}
		return types.NewFloat(math.Log(f)), nil
	}},
	"power": {2, func(a []types.Value) (types.Value, error) {
		x, xo := a[0].AsFloat()
		y, yo := a[1].AsFloat()
		if !xo || !yo {
			if a[0].IsNull() || a[1].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("POWER needs numeric arguments")
		}
		return types.NewFloat(math.Pow(x, y)), nil
	}},
	"sign": {1, func(a []types.Value) (types.Value, error) {
		f, ok := a[0].AsFloat()
		if !ok {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("SIGN of %s", a[0].Kind())
		}
		switch {
		case f > 0:
			return types.NewInt(1), nil
		case f < 0:
			return types.NewInt(-1), nil
		default:
			return types.NewInt(0), nil
		}
	}},
	"greatest": {-1, extremeFn("GREATEST", 1)},
	"least":    {-1, extremeFn("LEAST", -1)},

	// Geometry constructors.
	"st_point": {2, func(a []types.Value) (types.Value, error) {
		x, xo := a[0].AsFloat()
		y, yo := a[1].AsFloat()
		if !xo || !yo {
			return types.Null(), fmt.Errorf("ST_Point needs numeric coordinates")
		}
		return types.NewGeometry(geo.Point{X: x, Y: y}), nil
	}},
	"st_geomfromtext": {1, func(a []types.Value) (types.Value, error) {
		if a[0].Kind() != types.KindText {
			return types.Null(), fmt.Errorf("ST_GeomFromText needs a text argument")
		}
		g, err := geo.Parse(a[0].Text())
		if err != nil {
			return types.Null(), err
		}
		return types.NewGeometry(g), nil
	}},

	// Spatial predicates and measures (planar stand-ins for PostGIS).
	"st_contains": {2, func(a []types.Value) (types.Value, error) {
		ga, gb, err := twoGeoms(a)
		if err != nil {
			return types.Null(), err
		}
		if ga == nil || gb == nil {
			return types.Null(), nil
		}
		return types.NewBool(geo.Contains(ga, gb)), nil
	}},
	"st_distance": {2, func(a []types.Value) (types.Value, error) {
		ga, gb, err := twoGeoms(a)
		if err != nil {
			return types.Null(), err
		}
		if ga == nil || gb == nil {
			return types.Null(), nil
		}
		return types.NewFloat(geo.Distance(ga, gb)), nil
	}},
	"st_dwithin": {3, func(a []types.Value) (types.Value, error) {
		ga, gb, err := twoGeoms(a[:2])
		if err != nil {
			return types.Null(), err
		}
		d, ok := a[2].AsFloat()
		if !ok {
			return types.Null(), fmt.Errorf("ST_DWithin needs a numeric distance")
		}
		if ga == nil || gb == nil {
			return types.Null(), nil
		}
		return types.NewBool(geo.DWithin(ga, gb, d)), nil
	}},

	// CScore(rating, distance) is the combined rank score of Query 8: the
	// predicted rating damped by spatial distance. Higher is better.
	"cscore": {2, func(a []types.Value) (types.Value, error) {
		rating, ro := a[0].AsFloat()
		dist, do := a[1].AsFloat()
		if !ro || !do {
			if a[0].IsNull() || a[1].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("CScore needs numeric arguments")
		}
		if dist < 0 {
			return types.Null(), fmt.Errorf("CScore distance must be non-negative")
		}
		return types.NewFloat(rating / (1 + dist)), nil
	}},
}

func numericFn(name string, f func(float64) float64) func([]types.Value) (types.Value, error) {
	return func(a []types.Value) (types.Value, error) {
		v, ok := a[0].AsFloat()
		if !ok {
			if a[0].IsNull() {
				return types.Null(), nil
			}
			return types.Null(), fmt.Errorf("%s of %s", name, a[0].Kind())
		}
		return types.NewFloat(f(v)), nil
	}
}

// extremeFn implements GREATEST (dir=1) and LEAST (dir=-1): the extreme of
// any comparable values; NULL inputs are skipped, all-NULL yields NULL.
func extremeFn(name string, dir int) func([]types.Value) (types.Value, error) {
	return func(a []types.Value) (types.Value, error) {
		if len(a) == 0 {
			return types.Null(), fmt.Errorf("%s needs at least one argument", name)
		}
		best := types.Null()
		for _, v := range a {
			if v.IsNull() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			c, err := types.Compare(v, best)
			if err != nil {
				return types.Null(), err
			}
			if c*dir > 0 {
				best = v
			}
		}
		return best, nil
	}
}

func textFn(f func(string) string) func([]types.Value) (types.Value, error) {
	return func(a []types.Value) (types.Value, error) {
		if a[0].IsNull() {
			return types.Null(), nil
		}
		if a[0].Kind() != types.KindText {
			return types.Null(), fmt.Errorf("text function over %s", a[0].Kind())
		}
		return types.NewText(f(a[0].Text())), nil
	}
}

func twoGeoms(a []types.Value) (geo.Geometry, geo.Geometry, error) {
	var out [2]geo.Geometry
	for i := 0; i < 2; i++ {
		switch a[i].Kind() {
		case types.KindNull:
			out[i] = nil
		case types.KindGeometry:
			out[i] = a[i].Geometry()
		case types.KindText:
			g, err := geo.Parse(a[i].Text())
			if err != nil {
				return nil, nil, err
			}
			out[i] = g
		default:
			return nil, nil, fmt.Errorf("argument %d is %s, not a geometry", i+1, a[i].Kind())
		}
	}
	return out[0], out[1], nil
}
