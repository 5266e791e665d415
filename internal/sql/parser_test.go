package sql

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"recdb/internal/types"
)

func mustParse(t *testing.T, input string) Statement {
	t.Helper()
	stmt, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	return stmt
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT r.uid, 'it''s', 3.5e2 -- comment\nFROM t WHERE a >= 10;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "r", ".", "uid", ",", "it's", ",", "3.5e2", "FROM", "t", "WHERE", "a", ">=", "10", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("got %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("bad character should fail")
	}
	if _, err := Lex(`"unterminated ident`); err == nil {
		t.Error("unterminated quoted identifier should fail")
	}
}

// TestLexPositions pins the whole text, line and column of lex and parse
// errors: lines count from 1 at each '\n', columns in bytes from 1 (a CR,
// a tab and a two-byte character are one column per byte), on the first
// line, a later one, and past a -- comment.
func TestLexPositions(t *testing.T) {
	cases := []struct {
		input     string
		err       string
		line, col int
	}{
		{"SELECT a @ b", "sql: syntax error at line 1, column 10: unexpected character '@'", 1, 10},
		{"SELECT a\n  FROM t WHERE s = 'open", "sql: syntax error at line 2, column 20: unterminated string literal", 2, 20},
		{"SELECT \"a FROM t", "sql: syntax error at line 1, column 8: unterminated quoted identifier", 1, 8},
		{"SELECT a FROM", "sql: syntax error at line 1, column 14: expected identifier, got end of input", 1, 14},
		{"SELECT a\nFROM t\nWHERE a IN ()", "sql: syntax error at line 3, column 13: expected expression, got )", 3, 13},
		{"-- header\nSELECT a FROM t GARBAGE trailing", "sql: syntax error at line 2, column 25: unexpected trailing after statement", 2, 25},
		{"SELECT a -- the column\n  FROM", "sql: syntax error at line 2, column 7: expected identifier, got end of input", 2, 7},
		{"SELECT 'héllo' FROM", "sql: syntax error at line 1, column 21: expected identifier, got end of input", 1, 21},
		{"SELECT a\r\n\tFROM 1", "sql: syntax error at line 2, column 7: expected identifier, got 1", 2, 7},
		{"-- only a comment", "sql: syntax error at line 1, column 18: expected a statement, got end of input", 1, 18},
		{"SELECT a FROM t WHERE b = 99999999999999999999", "sql: syntax error at line 1, column 47: bad integer \"99999999999999999999\"", 1, 47},
	}
	check := func(input string, err error, want string, line, col int) {
		t.Helper()
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%q: %v, want a *ParseError", input, err)
		}
		if err.Error() != want || pe.Line != line || pe.Col != col {
			t.Fatalf("%q:\n got %q at %d:%d\nwant %q at %d:%d", input, err, pe.Line, pe.Col, want, line, col)
		}
	}
	for _, tc := range cases {
		_, err := Parse(tc.input)
		check(tc.input, err, tc.err, tc.line, tc.col)
	}
	const script = "SELECT a FROM t\n  SELECT b FROM u"
	_, err := ParseScript(script)
	check(script, err, "sql: syntax error at line 2, column 3: expected ';' between statements, got SELECT", 2, 3)
}

func TestParseCreateTable(t *testing.T) {
	ct := mustParse(t, `CREATE TABLE users (uid INT PRIMARY KEY, name TEXT, age INT, loc GEOMETRY)`).(*CreateTable)
	if ct.Name != "users" || len(ct.Cols) != 4 {
		t.Fatalf("%+v", ct)
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[0].TypeName != "INT" {
		t.Fatalf("pk col: %+v", ct.Cols[0])
	}
	if ct.Cols[3].TypeName != "GEOMETRY" {
		t.Fatalf("geom col: %+v", ct.Cols[3])
	}
	ct2 := mustParse(t, `CREATE TABLE IF NOT EXISTS t (a INT)`).(*CreateTable)
	if !ct2.IfNotExists {
		t.Fatal("IF NOT EXISTS not parsed")
	}
}

func TestParseDrop(t *testing.T) {
	d := mustParse(t, "DROP TABLE movies").(*DropTable)
	if d.Name != "movies" || d.IfExists {
		t.Fatalf("%+v", d)
	}
	d2 := mustParse(t, "DROP TABLE IF EXISTS movies").(*DropTable)
	if !d2.IfExists {
		t.Fatal("IF EXISTS not parsed")
	}
	r := mustParse(t, "DROP RECOMMENDER GeneralRec").(*DropRecommender)
	if r.Name != "GeneralRec" {
		t.Fatalf("%+v", r)
	}
}

func TestParseInsert(t *testing.T) {
	ins := mustParse(t, `INSERT INTO ratings (uid, iid, ratingval) VALUES (1, 2, 4.5), (2, 1, 3)`).(*Insert)
	if ins.Table != "ratings" || len(ins.Cols) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	lit := ins.Rows[0][2].(*Literal)
	if lit.Value.Kind() != types.KindFloat || lit.Value.Float() != 4.5 {
		t.Fatalf("literal: %v", lit.Value)
	}
	ins2 := mustParse(t, `INSERT INTO t VALUES ('x', -5, NULL, TRUE)`).(*Insert)
	if len(ins2.Cols) != 0 || len(ins2.Rows[0]) != 4 {
		t.Fatalf("%+v", ins2)
	}
	if v := ins2.Rows[0][1].(*Literal).Value; v.Int() != -5 {
		t.Fatalf("negative literal: %v", v)
	}
}

func TestParseDeleteUpdate(t *testing.T) {
	d := mustParse(t, "DELETE FROM ratings WHERE uid = 3").(*Delete)
	if d.Table != "ratings" || d.Where == nil {
		t.Fatalf("%+v", d)
	}
	u := mustParse(t, "UPDATE ratings SET ratingval = 5, uid = uid + 1 WHERE iid = 2").(*Update)
	if u.Table != "ratings" || len(u.Set) != 2 || u.Where == nil {
		t.Fatalf("%+v", u)
	}
}

func TestParseTransactionControl(t *testing.T) {
	for _, q := range []string{"BEGIN", "BEGIN TRANSACTION", "START TRANSACTION"} {
		if _, ok := mustParse(t, q).(*Begin); !ok {
			t.Fatalf("%q did not parse as Begin", q)
		}
	}
	for _, q := range []string{"COMMIT", "COMMIT TRANSACTION"} {
		if _, ok := mustParse(t, q).(*Commit); !ok {
			t.Fatalf("%q did not parse as Commit", q)
		}
	}
	for _, q := range []string{"ROLLBACK", "ROLLBACK TRANSACTION"} {
		if _, ok := mustParse(t, q).(*Rollback); !ok {
			t.Fatalf("%q did not parse as Rollback", q)
		}
	}
	// START alone is not a statement.
	if _, err := Parse("START"); err == nil {
		t.Fatal("bare START should not parse")
	}
}

func TestParseCreateRecommenderPaperExample(t *testing.T) {
	// Recommender 1 from the paper (note "Item From", singular).
	cr := mustParse(t, `Create Recommender GeneralRec On Ratings
		Users From uid Item From iid Ratings From ratingval
		Using ItemCosCF`).(*CreateRecommender)
	if cr.Name != "GeneralRec" || cr.Table != "Ratings" {
		t.Fatalf("%+v", cr)
	}
	if cr.UserCol != "uid" || cr.ItemCol != "iid" || cr.RatingCol != "ratingval" {
		t.Fatalf("%+v", cr)
	}
	if cr.Algorithm != "ItemCosCF" {
		t.Fatalf("alg: %q", cr.Algorithm)
	}
}

func TestParseCreateRecommenderDefaultAlgorithm(t *testing.T) {
	cr := mustParse(t, `CREATE RECOMMENDER r ON ratings USERS FROM u ITEMS FROM i RATINGS FROM v`).(*CreateRecommender)
	if cr.Algorithm != "" {
		t.Fatalf("alg should be empty, got %q", cr.Algorithm)
	}
}

// TestParseCreateRecommenderWithWorkers: CREATE RECOMMENDER takes no
// tuning clause. The statement ends after RATINGS FROM (or USING), so a
// WITH WORKERS tail is refused, and the error names WITH.
func TestParseCreateRecommenderWithWorkers(t *testing.T) {
	for _, bad := range []string{
		`CREATE RECOMMENDER r ON ratings USERS FROM u ITEMS FROM i RATINGS FROM v USING SVD WITH WORKERS 4`,
		`CREATE RECOMMENDER r ON ratings USERS FROM u ITEMS FROM i RATINGS FROM v WITH WORKERS 2`,
		`CREATE RECOMMENDER r ON ratings USERS FROM u ITEMS FROM i RATINGS FROM v WITH WORKERS 0`,
		`CREATE RECOMMENDER r ON ratings USERS FROM u ITEMS FROM i RATINGS FROM v WITH WORKERS many`,
		`CREATE RECOMMENDER r ON ratings USERS FROM u ITEMS FROM i RATINGS FROM v WITH 4`,
	} {
		_, err := Parse(bad)
		if err == nil || !strings.Contains(err.Error(), "WITH") {
			t.Fatalf("Parse(%q) = %v, want an error naming WITH", bad, err)
		}
	}
}

func TestParseQuery1Paper(t *testing.T) {
	// Query 1 from the paper.
	s := mustParse(t, `Select R.uid, R.iid, R.ratingval From Ratings as R
		Recommend R.iid To R.uid On R.ratingVal Using ItemCosCF
		Where R.uid=1
		Order By R.ratingVal Desc Limit 10`).(*Select)
	if len(s.Items) != 3 || len(s.From) != 1 {
		t.Fatalf("%+v", s)
	}
	if s.From[0].Table != "Ratings" || s.From[0].Alias != "R" {
		t.Fatalf("from: %+v", s.From[0])
	}
	if s.Recommend == nil {
		t.Fatal("RECOMMEND clause missing")
	}
	if s.Recommend.Item.String() != "R.iid" || s.Recommend.User.String() != "R.uid" {
		t.Fatalf("recommend: %+v", s.Recommend)
	}
	if !EqualFold(s.Recommend.Algorithm, "ItemCosCF") {
		t.Fatalf("alg: %q", s.Recommend.Algorithm)
	}
	if s.Where == nil || len(s.OrderBy) != 1 || !s.OrderBy[0].Desc || s.Limit == nil {
		t.Fatalf("tail clauses: %+v", s)
	}
}

func TestParseQuery3SelectionIn(t *testing.T) {
	s := mustParse(t, `Select R.iid, R.ratingval From Ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid=1 And R.iid In (1,2,3,4,5)`).(*Select)
	b := s.Where.(*Binary)
	if b.Op != OpAnd {
		t.Fatalf("where: %+v", s.Where)
	}
	in := b.R.(*In)
	if len(in.List) != 5 || in.Negate {
		t.Fatalf("in: %+v", in)
	}
}

func TestParseQuery4Join(t *testing.T) {
	s := mustParse(t, `Select R.uid, M.name, R.ratingval From Ratings as R, Movies as M
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid=1 And M.iid = R.iid And M.genre='Action'`).(*Select)
	if len(s.From) != 2 || s.From[1].Alias != "M" {
		t.Fatalf("from: %+v", s.From)
	}
}

func TestParseQuery6SpatialFunctions(t *testing.T) {
	s := mustParse(t, `Select H.name, R.ratingval
		From HotelRatings as R, Hotels as H, City as C
		Recommend R.iid To R.uid On R.ratingVal Using ItemCosCF
		Where R.uid=1 AND R.iid=H.vid AND C.name = 'San Diego'
		AND ST_Contains(C.geom, H.geom)`).(*Select)
	if len(s.From) != 3 {
		t.Fatalf("from: %+v", s.From)
	}
	// Find the ST_Contains call in the AND chain.
	var found bool
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Call:
			if EqualFold(v.Name, "ST_Contains") && len(v.Args) == 2 {
				found = true
			}
		}
	}
	walk(s.Where)
	if !found {
		t.Fatal("ST_Contains call not found in WHERE")
	}
}

func TestParseQuery8OrderByFunction(t *testing.T) {
	s := mustParse(t, `Select V.name, V.address From Ratings as R, Restaurants as V
		Recommend R.iid To R.uid On R.ratingVal Using UserPearCF
		Where R.uid=1 AND R.iid=V.vid
		Order By CScore(R.ratingVal, ST_Distance(V.geom, ULoc(0))) Desc Limit 3`).(*Select)
	call, ok := s.OrderBy[0].Expr.(*Call)
	if !ok || !EqualFold(call.Name, "CScore") || len(call.Args) != 2 {
		t.Fatalf("order by: %+v", s.OrderBy[0].Expr)
	}
}

func TestParseStar(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t").(*Select)
	if !s.Items[0].Star {
		t.Fatal("star not parsed")
	}
}

func TestParseAliases(t *testing.T) {
	s := mustParse(t, "SELECT a + 1 AS total, b bee FROM t x WHERE b = 1").(*Select)
	if s.Items[0].Alias != "total" || s.Items[1].Alias != "bee" {
		t.Fatalf("aliases: %+v", s.Items)
	}
	if s.From[0].Alias != "x" {
		t.Fatalf("table alias: %+v", s.From[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").(*Select)
	or := s.Where.(*Binary)
	if or.Op != OpOr {
		t.Fatalf("top op: %v", or.Op)
	}
	and := or.R.(*Binary)
	if and.Op != OpAnd {
		t.Fatalf("right op: %v", and.Op)
	}
	s2 := mustParse(t, "SELECT a FROM t WHERE a + b * c = 7").(*Select)
	eq := s2.Where.(*Binary)
	add := eq.L.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("add: %v", add.Op)
	}
	if add.R.(*Binary).Op != OpMul {
		t.Fatal("mul should bind tighter than add")
	}
}

func TestConjuncts(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND (d = 4 AND e = 5)").(*Select)
	var got []string
	for _, c := range Conjuncts(s.Where) {
		got = append(got, ExprString(c))
	}
	if want := "(a = 1)|((b = 2) OR (c = 3))|(d = 4)|(e = 5)"; strings.Join(got, "|") != want {
		t.Fatalf("Conjuncts = %q, want %q", strings.Join(got, "|"), want)
	}
	if c := Conjuncts(nil); c != nil {
		t.Fatalf("Conjuncts(nil) = %v, want none", c)
	}
}

func TestParseNotAndIsNull(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE NOT a = 1 AND b IS NOT NULL AND c IS NULL AND d NOT IN (1,2)").(*Select)
	if s.Where == nil {
		t.Fatal("where missing")
	}
	var nulls, notNulls, notIns int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *IsNull:
			if v.Negate {
				notNulls++
			} else {
				nulls++
			}
		case *In:
			if v.Negate {
				notIns++
			}
		case *Unary:
			walk(v.X)
		}
	}
	walk(s.Where)
	if nulls != 1 || notNulls != 1 || notIns != 1 {
		t.Fatalf("nulls=%d notNulls=%d notIns=%d", nulls, notNulls, notIns)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT a", "SELECT a FROM", "CREATE", "CREATE VIEW v",
		"INSERT INTO t", "CREATE TABLE t ()", "SELECT a FROM t WHERE",
		"CREATE RECOMMENDER r ON t USERS FROM", "SELECT a FROM t GARBAGE trailing",
		"SELECT a FROM t LIMIT", "DELETE", "UPDATE t", "SELECT a FROM t WHERE a IN ()",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}
}

func TestParseAll(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
	if _, err := ParseAll("SELECT a FROM t SELECT b FROM u"); err == nil {
		t.Error("missing semicolon should fail")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	mustParse(t, "select a from t where a = 1 order by a desc limit 5")
	mustParse(t, "SELECT a FROM t WHERE a = 1 ORDER BY a DESC LIMIT 5")
}

func TestBinaryOpString(t *testing.T) {
	ops := map[BinaryOp]string{
		OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
		OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v.String() = %q", int(op), op.String())
		}
	}
}

func TestParseLikeBetween(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE name LIKE 'Act%' AND a BETWEEN 1 AND 10 AND b NOT LIKE '_x' AND c NOT BETWEEN 2 AND 3").(*Select)
	var likes, notLikes, betweens, notBetweens int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Like:
			if v.Negate {
				notLikes++
			} else {
				likes++
			}
		case *Between:
			if v.Negate {
				notBetweens++
			} else {
				betweens++
			}
		}
	}
	walk(s.Where)
	if likes != 1 || notLikes != 1 || betweens != 1 || notBetweens != 1 {
		t.Fatalf("likes=%d notLikes=%d betweens=%d notBetweens=%d", likes, notLikes, betweens, notBetweens)
	}
}

func TestParseGroupByHavingDistinct(t *testing.T) {
	s := mustParse(t, `SELECT DISTINCT genre, COUNT(*) FROM movies
		GROUP BY genre, director HAVING COUNT(*) > 2 ORDER BY genre`).(*Select)
	if !s.Distinct || len(s.GroupBy) != 2 || s.Having == nil {
		t.Fatalf("%+v", s)
	}
	call := s.Items[1].Expr.(*Call)
	if len(call.Args) != 1 {
		t.Fatalf("count args: %v", call.Args)
	}
	if _, ok := call.Args[0].(*Star); !ok {
		t.Fatalf("COUNT(*) star arg: %T", call.Args[0])
	}
}

func TestParseExplain(t *testing.T) {
	e := mustParse(t, "EXPLAIN SELECT a FROM t WHERE a = 1").(*Explain)
	if e.Query == nil || e.Query.Where == nil {
		t.Fatalf("%+v", e)
	}
	if _, err := Parse("EXPLAIN INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("EXPLAIN of non-SELECT should fail")
	}
}

func TestExprStringCanonical(t *testing.T) {
	// Same expression with different case renders identically.
	a := mustParse(t, "SELECT x FROM t WHERE Genre = 'A' AND val BETWEEN 1 AND 2").(*Select).Where
	b := mustParse(t, "SELECT x FROM t WHERE genre = 'A' AND VAL BETWEEN 1 AND 2").(*Select).Where
	if ExprString(a) != ExprString(b) {
		t.Fatalf("canonical mismatch:\n%s\n%s", ExprString(a), ExprString(b))
	}
	// Rendering is parseable-ish and distinctive.
	exprs := []string{
		"a + b * c = 7",
		"ST_DWithin(g, ST_Point(1, 2), 5)",
		"name LIKE 'x%'",
		"a IN (1, 2, 3)",
		"x IS NOT NULL",
		"NOT (a = 1 OR b = 2)",
		"COUNT(*) > 2",
		"s = 'it''s'",
	}
	seen := map[string]string{}
	for _, e := range exprs {
		w := mustParse(t, "SELECT x FROM t WHERE "+e).(*Select).Where
		r := ExprString(w)
		if prev, dup := seen[r]; dup {
			t.Fatalf("collision: %q and %q both render %q", prev, e, r)
		}
		seen[r] = e
	}
}

func TestExprStringStableUnderReparse(t *testing.T) {
	// Render → parse → render is a fixed point for WHERE expressions.
	inputs := []string{
		"(a + b) * c = 7",
		"a BETWEEN 1 AND 2 AND s LIKE '%x_'",
		"ABS(a - b) >= 2.5",
		"g IS NULL OR a IN (1, 2)",
	}
	for _, in := range inputs {
		w1 := mustParse(t, "SELECT x FROM t WHERE "+in).(*Select).Where
		r1 := ExprString(w1)
		w2 := mustParse(t, "SELECT x FROM t WHERE "+r1).(*Select).Where
		r2 := ExprString(w2)
		if r1 != r2 {
			t.Fatalf("not a fixed point:\n%q\n%q", r1, r2)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Parser robustness: arbitrary inputs must return errors, not panic.
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", s, r)
			}
		}()
		_, _ = Parse(s)
		_, _ = ParseAll(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Adversarial fragments around every keyword.
	fragments := []string{
		"SELECT", "FROM", "WHERE", "RECOMMEND", "TO", "ON", "USING",
		"GROUP BY", "HAVING", "ORDER BY", "LIMIT", "OFFSET", "IN", "LIKE",
		"BETWEEN", "AND", "OR", "NOT", "(", ")", ",", ".", "'", "1", "1.5",
		"*", "=", "<=",
	}
	rng := uint64(42)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1
		return int(rng>>33) % n
	}
	for trial := 0; trial < 3000; trial++ {
		var sb strings.Builder
		for i := 0; i < 1+next(12); i++ {
			sb.WriteString(fragments[next(len(fragments))])
			sb.WriteByte(' ')
		}
		input := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", input, r)
				}
			}()
			_, _ = Parse(input)
		}()
	}
}

func TestParseScriptSourceText(t *testing.T) {
	script := `
		CREATE TABLE t (a INT PRIMARY KEY);

		INSERT INTO t VALUES (1),
			(2);
		SELECT * FROM t`
	out, err := ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("statements: %d", len(out))
	}
	if out[0].Text != "CREATE TABLE t (a INT PRIMARY KEY)" {
		t.Fatalf("stmt 0 text = %q", out[0].Text)
	}
	// Multi-line statements keep their interior layout, lose only the
	// surrounding whitespace and semicolon.
	if !strings.HasPrefix(out[1].Text, "INSERT INTO t VALUES (1),") ||
		!strings.HasSuffix(out[1].Text, "(2)") {
		t.Fatalf("stmt 1 text = %q", out[1].Text)
	}
	if out[2].Text != "SELECT * FROM t" {
		t.Fatalf("stmt 2 text = %q", out[2].Text)
	}
	// Each slice reparses to the same statement kind.
	for i, s := range out {
		if _, err := Parse(s.Text); err != nil {
			t.Fatalf("stmt %d text %q does not reparse: %v", i, s.Text, err)
		}
	}
}

func TestAggregate(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "min": AggMin, "MAX": AggMax,
	} {
		got, ok := Aggregate(name)
		if !ok || got != want || !IsAggregate(name) {
			t.Errorf("Aggregate(%q) = %v, %v", name, got, ok)
		}
	}
	for _, name := range []string{"median", "abs", "counter", "", "maximum"} {
		if _, ok := Aggregate(name); ok || IsAggregate(name) {
			t.Errorf("%q should not be an aggregate", name)
		}
	}
}
