package expr

import (
	"math"
	"strings"
	"testing"

	"recdb/internal/geo"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// evalWhere parses "SELECT a FROM t WHERE <cond>" and evaluates the WHERE
// expression against row under schema.
func evalWhere(t *testing.T, cond string, schema *types.Schema, row types.Row) types.Value {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	c, err := Compile(stmt.(*sql.Select).Where, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", cond, err)
	}
	v, err := c(row)
	if err != nil {
		t.Fatalf("eval %q: %v", cond, err)
	}
	return v
}

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: "t", Name: "a", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "b", Kind: types.KindFloat},
		types.Column{Qualifier: "t", Name: "s", Kind: types.KindText},
		types.Column{Qualifier: "t", Name: "n", Kind: types.KindInt},
		types.Column{Qualifier: "t", Name: "g", Kind: types.KindGeometry},
	)
}

func testRow() types.Row {
	return types.Row{
		types.NewInt(10),
		types.NewFloat(2.5),
		types.NewText("Action"),
		types.Null(),
		types.NewGeometry(geo.Point{X: 3, Y: 4}),
	}
}

func TestComparisons(t *testing.T) {
	s, r := testSchema(), testRow()
	cases := map[string]bool{
		"a = 10":       true,
		"a <> 10":      false,
		"a != 9":       true,
		"a < 11":       true,
		"a <= 10":      true,
		"a > 10":       false,
		"a >= 10":      true,
		"b = 2.5":      true,
		"a > b":        true,
		"s = 'Action'": true,
		"s = 'action'": false,
		"t.a = 10":     true,
	}
	for cond, want := range cases {
		v := evalWhere(t, cond, s, r)
		if !Truthy(v) != !want {
			t.Errorf("%s = %v, want %v", cond, v, want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	s, r := testSchema(), testRow()
	cases := map[string]bool{
		"a + 5 = 15":          true,
		"a - 5 = 5":           true,
		"a * 2 = 20":          true,
		"a / 3 = 3":           true, // integer division
		"a / 4.0 = 2.5":       true,
		"b * 2 = 5.0":         true,
		"-a = -10":            true,
		"s + '!' = 'Action!'": true,
	}
	for cond, want := range cases {
		v := evalWhere(t, cond, s, r)
		if Truthy(v) != want {
			t.Errorf("%s = %v, want %v", cond, v, want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	s, r := testSchema(), testRow()
	stmt, _ := sql.Parse("SELECT x FROM t WHERE a / 0 = 1")
	c, err := Compile(stmt.(*sql.Select).Where, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c(r); err == nil {
		t.Fatal("division by zero should error")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	s, r := testSchema(), testRow()
	// n is NULL.
	null := func(cond string) {
		t.Helper()
		if v := evalWhere(t, cond, s, r); !v.IsNull() {
			t.Errorf("%s = %v, want NULL", cond, v)
		}
	}
	truev := func(cond string) {
		t.Helper()
		if v := evalWhere(t, cond, s, r); !Truthy(v) {
			t.Errorf("%s = %v, want TRUE", cond, v)
		}
	}
	falsev := func(cond string) {
		t.Helper()
		if v := evalWhere(t, cond, s, r); v.IsNull() || v.Bool() {
			t.Errorf("%s = %v, want FALSE", cond, v)
		}
	}
	null("n = 1")
	null("n + 1 = 2")
	null("NOT n = 1")
	null("n = 1 AND a = 10")
	falsev("n = 1 AND a = 11")
	truev("n = 1 OR a = 10")
	null("n = 1 OR a = 11")
	truev("n IS NULL")
	falsev("n IS NOT NULL")
	truev("a IS NOT NULL")
	null("n IN (1, 2)")
	null("a IN (1, n)")   // no match, null present
	truev("a IN (10, n)") // match wins over null
	truev("a NOT IN (1, 2)")
	falsev("a NOT IN (10)")
}

func TestInList(t *testing.T) {
	s, r := testSchema(), testRow()
	if !Truthy(evalWhere(t, "a IN (1, 5, 10)", s, r)) {
		t.Error("IN should match")
	}
	if Truthy(evalWhere(t, "a IN (1, 5, 11)", s, r)) {
		t.Error("IN should not match")
	}
	if !Truthy(evalWhere(t, "s IN ('Action', 'Drama')", s, r)) {
		t.Error("text IN should match")
	}
}

// TestConstantInMatchesLoop is a differential test of an IN list of
// constants, which is hashed once at compile time, against the
// item-by-item loop that a list reading the row keeps. The same values
// are given once as literals and once as columns of the row, over random
// lists and probes of ints, integral and non-integral floats, NaN, text
// and NULL, with IN and NOT IN: the two must give the same value, NULL
// included, every time.
func TestConstantInMatchesLoop(t *testing.T) {
	rng := uint64(3)
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	value := func() types.Value {
		k := int64(next(7)) - 3
		switch next(9) {
		case 0:
			return types.NewInt(k)
		case 1:
			return types.NewFloat(float64(k))
		case 2:
			return types.NewFloat(float64(k) + 0.5)
		case 3:
			return types.NewText(strings.Repeat("a", int(k+3)))
		case 4:
			return types.Null()
		case 5:
			return types.NewInt(1<<53 + k)
		case 6:
			return types.NewFloat(float64(1<<53 + k))
		case 7:
			if next(8) == 0 {
				return types.NewFloat(math.NaN())
			}
			return types.NewBool(k > 0)
		}
		return types.NewInt(-k)
	}
	sawNull, sawTrue, sawFalse := 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + int(next(8))
		cols := []types.Column{{Name: "x"}}
		row := types.Row{value()}
		literals := make([]sql.Expr, n)
		refs := make([]sql.Expr, n)
		for i := range literals {
			v := value()
			cols = append(cols, types.Column{Name: "c" + strings.Repeat("i", i)})
			row = append(row, v)
			literals[i] = &sql.Literal{Value: v}
			if k, ok := v.AsInt(); ok && v.Kind() == types.KindInt && k < 0 {
				literals[i] = &sql.Unary{Op: "-", X: &sql.Literal{Value: types.NewInt(-k)}}
			}
			refs[i] = &sql.ColumnRef{Name: cols[i+1].Name}
		}
		schema := types.NewSchema(cols...)
		for _, negate := range []bool{false, true} {
			x := &sql.ColumnRef{Name: "x"}
			set, err := Compile(&sql.In{X: x, List: literals, Negate: negate}, schema)
			if err != nil {
				t.Fatal(err)
			}
			loop, err := Compile(&sql.In{X: x, List: refs, Negate: negate}, schema)
			if err != nil {
				t.Fatal(err)
			}
			got, err1 := set(row)
			want, err2 := loop(row)
			if err1 != nil || err2 != nil || got.Kind() != want.Kind() || (!got.IsNull() && got.Bool() != want.Bool()) {
				t.Fatalf("%v IN %v (negate %v): set %v %v, loop %v %v", row[0], row[1:], negate, got, err1, want, err2)
			}
			switch {
			case got.IsNull():
				sawNull++
			case got.Bool():
				sawTrue++
			default:
				sawFalse++
			}
		}
	}
	if sawNull == 0 || sawTrue == 0 || sawFalse == 0 {
		t.Fatalf("fixture: %d NULL, %d true, %d false", sawNull, sawTrue, sawFalse)
	}
}

func TestFunctions(t *testing.T) {
	s, r := testSchema(), testRow()
	cases := map[string]bool{
		"ABS(-5) = 5":           true,
		"ABS(-2.5) = 2.5":       true,
		"LOWER(s) = 'action'":   true,
		"UPPER(s) = 'ACTION'":   true,
		"LENGTH(s) = 6":         true,
		"ROUND(2.4) = 2.0":      true,
		"SQRT(16) = 4.0":        true,
		"COALESCE(n, a) = 10":   true,
		"COALESCE(n, n, 7) = 7": true,
	}
	for cond, want := range cases {
		if Truthy(evalWhere(t, cond, s, r)) != want {
			t.Errorf("%s: want %v", cond, want)
		}
	}
}

func TestSpatialFunctions(t *testing.T) {
	s, r := testSchema(), testRow() // g = POINT(3 4)
	cases := map[string]bool{
		"ST_Distance(g, ST_Point(0, 0)) = 5.0":                              true,
		"ST_DWithin(g, ST_Point(0, 0), 5)":                                  true,
		"ST_DWithin(g, ST_Point(0, 0), 4.9)":                                false,
		"ST_Contains(ST_GeomFromText('POLYGON((0 0,10 0,10 10,0 10))'), g)": true,
		"ST_Contains(ST_GeomFromText('POLYGON((5 5,10 5,10 10,5 10))'), g)": false,
	}
	for cond, want := range cases {
		if Truthy(evalWhere(t, cond, s, r)) != want {
			t.Errorf("%s: want %v", cond, want)
		}
	}
}

func TestCScore(t *testing.T) {
	s, r := testSchema(), testRow()
	// CScore(rating, dist) = rating / (1 + dist).
	v := evalWhere(t, "CScore(4.0, 1.0) = 2.0", s, r)
	if !Truthy(v) {
		t.Error("CScore(4,1) should be 2")
	}
	v = evalWhere(t, "CScore(4.0, 0) = 4.0", s, r)
	if !Truthy(v) {
		t.Error("CScore at distance 0 should equal the rating")
	}
}

func TestCompileErrors(t *testing.T) {
	s := testSchema()
	bad := []string{
		"nope = 1",        // unknown column
		"t.nope = 1",      // unknown qualified column
		"NOSUCHFN(1) = 1", // unknown function
		"ABS(1, 2) = 1",   // wrong arity
	}
	for _, cond := range bad {
		stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if _, err := Compile(stmt.(*sql.Select).Where, s); err == nil {
			t.Errorf("Compile(%q): expected error", cond)
		}
	}
}

func TestEvalTypeErrors(t *testing.T) {
	s, r := testSchema(), testRow()
	bad := []string{
		"s + 1 = 2",   // text + int
		"s < 5",       // text vs int comparison
		"NOT a",       // NOT over non-boolean
		"a AND b = 1", // AND over non-boolean
	}
	for _, cond := range bad {
		stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
		if err != nil {
			t.Fatalf("parse %q: %v", cond, err)
		}
		c, err := Compile(stmt.(*sql.Select).Where, s)
		if err != nil {
			continue // compile-time rejection is fine too
		}
		if _, err := c(r); err == nil {
			t.Errorf("eval %q: expected error", cond)
		}
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(types.Null()) || Truthy(types.NewBool(false)) || Truthy(types.NewInt(1)) {
		t.Error("only TRUE is truthy")
	}
	if !Truthy(types.NewBool(true)) {
		t.Error("TRUE is truthy")
	}
}

func TestShortCircuit(t *testing.T) {
	// FALSE AND <error> must not error (short circuit), matching the
	// planner's reliance on cheap-first predicate ordering.
	s, r := testSchema(), testRow()
	stmt, _ := sql.Parse("SELECT x FROM t WHERE a = 11 AND a / 0 = 1")
	c, err := Compile(stmt.(*sql.Select).Where, s)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c(r)
	if err != nil || Truthy(v) {
		t.Fatalf("short-circuit AND: %v %v", v, err)
	}
	stmt, _ = sql.Parse("SELECT x FROM t WHERE a = 10 OR a / 0 = 1")
	c, _ = Compile(stmt.(*sql.Select).Where, s)
	v, err = c(r)
	if err != nil || !Truthy(v) {
		t.Fatalf("short-circuit OR: %v %v", v, err)
	}
}

func TestFloatFormattingStability(t *testing.T) {
	v := types.NewFloat(math.Pi)
	if !strings.HasPrefix(v.String(), "3.14159") {
		t.Fatalf("float format: %s", v)
	}
}

func TestMathFunctions(t *testing.T) {
	s, r := testSchema(), testRow()
	cases := map[string]bool{
		"FLOOR(2.7) = 2.0":         true,
		"CEIL(2.1) = 3.0":          true,
		"POWER(2, 10) = 1024.0":    true,
		"EXP(0) = 1.0":             true,
		"LN(EXP(1)) = 1.0":         true,
		"SIGN(-7) = -1":            true,
		"SIGN(0) = 0":              true,
		"SIGN(2.5) = 1":            true,
		"GREATEST(1, 5, 3) = 5":    true,
		"LEAST(1, 5, 3) = 1":       true,
		"GREATEST(n, 4) = 4":       true, // NULLs skipped
		"GREATEST('a', 'b') = 'b'": true,
	}
	for cond, want := range cases {
		if Truthy(evalWhere(t, cond, s, r)) != want {
			t.Errorf("%s: want %v", cond, want)
		}
	}
	// All-NULL GREATEST is NULL.
	if v := evalWhere(t, "GREATEST(n, n) IS NULL", s, r); !Truthy(v) {
		t.Error("GREATEST of NULLs should be NULL")
	}
	// LN of non-positive errors.
	stmt, _ := sql.Parse("SELECT x FROM t WHERE LN(0) = 1")
	c, err := Compile(stmt.(*sql.Select).Where, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c(r); err == nil {
		t.Error("LN(0) should error")
	}
}

func TestLikeAndBetween(t *testing.T) {
	s, r := testSchema(), testRow() // s = 'Action', a = 10
	cases := map[string]bool{
		"s LIKE 'Action'":         true,
		"s LIKE 'Act%'":           true,
		"s LIKE '%ion'":           true,
		"s LIKE '%cti%'":          true,
		"s LIKE 'A_tion'":         true,
		"s LIKE 'a%'":             false, // case sensitive
		"s LIKE '_'":              false,
		"s LIKE '%'":              true,
		"s NOT LIKE 'Dra%'":       true,
		"a BETWEEN 5 AND 15":      true,
		"a BETWEEN 10 AND 10":     true,
		"a BETWEEN 11 AND 20":     false,
		"a NOT BETWEEN 11 AND 20": true,
		"b BETWEEN 2 AND 3":       true, // float across ints
		"s BETWEEN 'A' AND 'B'":   true,
	}
	for cond, want := range cases {
		if Truthy(evalWhere(t, cond, s, r)) != want {
			t.Errorf("%s: want %v", cond, want)
		}
	}
	// NULL propagation.
	if v := evalWhere(t, "n LIKE '%'", s, r); !v.IsNull() {
		t.Error("NULL LIKE should be NULL")
	}
	if v := evalWhere(t, "n BETWEEN 1 AND 2", s, r); !v.IsNull() {
		t.Error("NULL BETWEEN should be NULL")
	}
	// Type errors.
	stmt, _ := sql.Parse("SELECT x FROM t WHERE a LIKE 'x'")
	c, err := Compile(stmt.(*sql.Select).Where, s)
	if err == nil {
		if _, err := c(r); err == nil {
			t.Error("LIKE over int should error")
		}
	}
}

func TestLikeMatcherEdgeCases(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ippi%", true},
		{"abc", "abc%", true},
		{"ab", "a_b", false},
	}
	for _, c := range cases {
		if likeMatch(c.s, c.p) != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, !c.want, c.want)
		}
	}
}

func TestFunctionNullAndErrorBranches(t *testing.T) {
	s, r := testSchema(), testRow()
	// NULL propagation through functions.
	for _, cond := range []string{
		"FLOOR(n) IS NULL", "CEIL(n) IS NULL", "EXP(n) IS NULL",
		"LN(n) IS NULL", "POWER(n, 2) IS NULL", "SIGN(n) IS NULL",
		"ABS(n) IS NULL", "ROUND(n) IS NULL", "SQRT(n) IS NULL",
		"LOWER(n) IS NULL", "LENGTH(n) IS NULL",
	} {
		if !Truthy(evalWhere(t, cond, s, r)) {
			t.Errorf("%s should be TRUE", cond)
		}
	}
	// Type errors at evaluation time.
	for _, cond := range []string{
		"FLOOR(s) = 1", "LN(s) = 1", "POWER(s, 2) = 1", "SIGN(s) = 1",
		"LOWER(a) = 'x'", "LENGTH(a) = 1", "SQRT(-1) = 1",
		"ST_Contains(a, g)", "ST_Distance(g, a) = 1", "ST_DWithin(g, g, s)",
		"ST_GeomFromText(a) IS NULL", "ST_Point(s, 1) IS NULL",
		"CScore(s, 1) = 1", "CScore(1, -1) = 1",
		"ST_GeomFromText('JUNK(1)') IS NULL",
	} {
		stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
		if err != nil {
			t.Fatalf("parse %q: %v", cond, err)
		}
		c, err := Compile(stmt.(*sql.Select).Where, s)
		if err != nil {
			continue
		}
		if _, err := c(r); err == nil {
			t.Errorf("eval %q: expected error", cond)
		}
	}
	// Spatial functions with NULL geometry arguments yield NULL.
	for _, cond := range []string{
		"ST_Contains(n, g) IS NULL",
		"ST_Distance(g, n) IS NULL",
		"ST_DWithin(n, g, 5) IS NULL",
	} {
		if !Truthy(evalWhere(t, cond, s, r)) {
			t.Errorf("%s should be TRUE", cond)
		}
	}
	// WKT text accepted as geometry argument.
	if !Truthy(evalWhere(t, "ST_DWithin(g, 'POINT(3 4)', 0.5)", s, r)) {
		t.Error("WKT text should be accepted as geometry")
	}
}
