package sql

import "testing"

// FuzzParse feeds arbitrary bytes to the two parser entry points the
// serving tier calls on client input. Neither may panic; and when the
// input is a statement with a WHERE clause, that clause's canonical
// rendering (ExprString — the planner's GROUP BY matching key and the text
// EXPLAIN prints) must itself parse, and render to the same string again.
// The seeds are the statements and expressions of the table tests in
// parser_test.go, so the corpus runs under plain `go test`.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"CREATE TABLE users (uid INT PRIMARY KEY, name TEXT, geom GEOMETRY)",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL)",
		"DELETE FROM t WHERE a = 1 AND b <> 'it''s'",
		"UPDATE t SET a = a + 1, b = 'y' WHERE a BETWEEN 1 AND 2 AND s LIKE '%x_'",
		"BEGIN; INSERT INTO t VALUES (1); COMMIT",
		"CREATE RECOMMENDER R ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF",
		`SELECT R.uid, R.iid, R.ratingval FROM ratings AS R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			WHERE R.uid = 1 AND R.iid IN (1, 2, 3) ORDER BY R.ratingval DESC LIMIT 10`,
		"SELECT x FROM t WHERE ST_DWithin(g, ST_Point(1, 2), 5) OR NOT (a = 1 OR b = 2)",
		"SELECT x FROM t WHERE ABS(a - b) >= 2.5 AND g IS NOT NULL",
		"SELECT DISTINCT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a OFFSET 1",
		"EXPLAIN ANALYZE SELECT * FROM t WHERE (a + b) * c = 7",
		"SELECT x FROM t WHERE a NOT IN (1) AND s NOT LIKE 'x' AND a NOT BETWEEN -1 AND 1.5e3",
		// Findings: a quoted identifier renders quoted again, a stray high
		// byte is a lex error, not a Latin-1 letter, and there is no -0.0.
		`SELECT x FROM t WHERE "a b"."C-d" = "f g"(1) AND "" IS NULL`,
		"SELECT 00FROM A WHERE 00*A0 LIKE \xd5",
		"SELECT 0FROM A WHERE-0e00",
		"SELECT 'unterminated",
		"SELECT ( ( (",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ParseScript(input)
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		var where Expr
		switch s := stmt.(type) {
		case *Select:
			where = s.Where
		case *Explain:
			where = s.Query.Where
		case *Delete:
			where = s.Where
		case *Update:
			where = s.Where
		}
		if where == nil {
			return
		}
		r1 := ExprString(where)
		again, err := Parse("SELECT x FROM t WHERE " + r1)
		if err != nil {
			t.Fatalf("rendering of a parsed WHERE does not parse: %v\ninput:    %q\nrendered: %q", err, input, r1)
		}
		if r2 := ExprString(again.(*Select).Where); r2 != r1 {
			t.Fatalf("rendering is not a fixed point\ninput: %q\nfirst:  %q\nsecond: %q", input, r1, r2)
		}
	})
}
