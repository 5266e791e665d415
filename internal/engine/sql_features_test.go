package engine

import (
	"strings"
	"testing"

	"recdb/internal/exec"
	"recdb/internal/types"
)

func TestGroupByAggregates(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT uid, COUNT(*), SUM(ratingval), AVG(ratingval),
		MIN(ratingval), MAX(ratingval)
		FROM ratings GROUP BY uid ORDER BY uid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 4 {
		t.Fatalf("groups: %v", q.Rows)
	}
	// User 2: 3 ratings summing to 10.
	r := q.Rows[1]
	if r[0].Int() != 2 || r[1].Int() != 3 || r[2].Float() != 10 {
		t.Fatalf("user 2 row: %v", r)
	}
	if r[3].Float() != 10.0/3 || r[4].Float() != 2 || r[5].Float() != 4.5 {
		t.Fatalf("user 2 avg/min/max: %v", r)
	}
	// Output column names are friendly.
	names := make([]string, q.Schema.Len())
	for i, c := range q.Schema.Columns {
		names[i] = c.Name
	}
	if names[0] != "uid" || names[1] != "count" || names[3] != "avg" {
		t.Fatalf("names: %v", names)
	}
}

func TestGlobalAggregate(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT COUNT(*), AVG(ratingval) FROM ratings`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 7 {
		t.Fatalf("global: %v", q.Rows)
	}
}

func TestHaving(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT uid, COUNT(*) AS n FROM ratings
		GROUP BY uid HAVING COUNT(*) >= 2 ORDER BY uid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 2 { // users 2 (3 ratings) and 3 (2 ratings)
		t.Fatalf("having: %v", q.Rows)
	}
	if q.Rows[0][0].Int() != 2 || q.Rows[1][0].Int() != 3 {
		t.Fatalf("having rows: %v", q.Rows)
	}
}

func TestOrderByAggregate(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT iid, COUNT(*) FROM ratings
		GROUP BY iid ORDER BY COUNT(*) DESC, iid ASC`)
	if err != nil {
		t.Fatal(err)
	}
	// Items 1 and 2 have 3 and 4 ratings... item 2: users 2,3,4 → wait,
	// count: item 1 rated by 1,2,3 (3), item 2 by 2,3,4 (3), item 3 by 2 (1).
	if len(q.Rows) != 3 || q.Rows[0][1].Int() != 3 || q.Rows[2][1].Int() != 1 {
		t.Fatalf("order by count: %v", q.Rows)
	}
	// Tie broken by iid ascending.
	if q.Rows[0][0].Int() != 1 || q.Rows[1][0].Int() != 2 {
		t.Fatalf("tie order: %v", q.Rows)
	}
}

// TestNonPersonalizedRecommendation expresses the paper's §II
// "non-personalized" recommender class in plain SQL: recommend the most
// highly rated items to everyone.
func TestNonPersonalizedRecommendation(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT iid, AVG(ratingval) AS score, COUNT(*) AS support
		FROM ratings
		GROUP BY iid
		HAVING COUNT(*) >= 2
		ORDER BY AVG(ratingval) DESC
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("non-personalized: %v", q.Rows)
	}
	// Item 1 avg (1.5+4.5+2)/3 ≈ 2.67 beats item 2 avg (3.5+1+1)/3 ≈ 1.83.
	if q.Rows[0][0].Int() != 1 || q.Rows[1][0].Int() != 2 {
		t.Fatalf("ranking: %v", q.Rows)
	}
}

func TestAggregateOverRecommend(t *testing.T) {
	// Aggregates compose with the RECOMMEND clause: the average predicted
	// rating per user.
	e := newMovieDB(t)
	createGeneralRec(t, e)
	q, err := e.Query(`SELECT R.uid, COUNT(*), AVG(R.ratingval) FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		GROUP BY R.uid ORDER BY R.uid`)
	if err != nil {
		t.Fatal(err)
	}
	// Users 1, 3, 4 have unseen items (user 2 rated everything).
	if len(q.Rows) != 3 {
		t.Fatalf("agg over recommend: %v", q.Rows)
	}
	if q.Rows[0][0].Int() != 1 || q.Rows[0][1].Int() != 2 {
		t.Fatalf("user 1 unseen count: %v", q.Rows[0])
	}
}

func TestDistinct(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT DISTINCT genre FROM movies ORDER BY genre`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 3 || q.Rows[0][0].Text() != "Action" {
		t.Fatalf("distinct: %v", q.Rows)
	}
	// DISTINCT with LIMIT dedups before limiting.
	q, err = e.Query(`SELECT DISTINCT uid FROM ratings ORDER BY uid LIMIT 2`)
	if err != nil || len(q.Rows) != 2 || q.Rows[1][0].Int() != 2 {
		t.Fatalf("distinct+limit: %v %v", q, err)
	}
}

func TestAggregateErrors(t *testing.T) {
	e := newMovieDB(t)
	bad := []string{
		`SELECT uid, ratingval FROM ratings GROUP BY uid`, // ungrouped column
		`SELECT COUNT(SUM(ratingval)) FROM ratings`,       // nested aggregate
		`SELECT * FROM ratings GROUP BY uid`,              // star with group by
		`SELECT SUM(*) FROM ratings`,                      // * outside COUNT
		`SELECT SUM(ratingval, uid) FROM ratings`,         // arity
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("Query(%q): expected error", q)
		}
	}
}

func TestOrderByProjectionAlias(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT uid, ratingval * 2 AS dbl FROM ratings ORDER BY dbl DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows[0][1].Float() != 9 {
		t.Fatalf("alias order: %v", q.Rows)
	}
}

func TestExplainPlain(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`EXPLAIN SELECT u.name, m.name FROM users u, movies m
		WHERE u.uid = m.mid AND u.age > 20`)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(q.Rows)
	for _, want := range []string{"Project", "HashJoin", "SeqScan on users", "SeqScan on movies", "Filter"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain missing %q:\n%s", want, text)
		}
	}
}

func TestExplainRecommend(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	q, err := e.Query(`EXPLAIN SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(q.Rows)
	if !strings.Contains(text, "strategy: FilterRecommend") ||
		!strings.Contains(text, "FilterRecommend [ItemCosCF] (1 users, all items, k 10)") {
		t.Fatalf("explain:\n%s", text)
	}

	// After materialization the plan shows the index path with the same
	// row target.
	if err := recCache(t, e, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	q, err = e.Query(`EXPLAIN SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	text = planText(q.Rows)
	if !strings.Contains(text, "IndexRecommend on RecScoreIndex (1 users, k 10)") {
		t.Fatalf("explain after materialize:\n%s", text)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	before, _, _ := e.Stats().Snapshot()
	if _, err := e.Query(`EXPLAIN SELECT R.uid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval`); err != nil {
		t.Fatal(err)
	}
	// Planning touches no heap pages for this query shape.
	after, _, _ := e.Stats().Snapshot()
	if reads := after - before; reads > 0 {
		t.Fatalf("EXPLAIN read %d pages", reads)
	}
}

func planText(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r[0].Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestPopularityRecommenderEndToEnd(t *testing.T) {
	e := newMovieDB(t)
	if _, err := e.Exec(`CREATE RECOMMENDER PopRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING Popularity`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING Popularity
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	// User 1 rated item 1; items 2 and 3 are recommended by damped mean.
	if len(q.Rows) != 2 {
		t.Fatalf("popularity recommend: %v", q.Rows)
	}
	// Every user gets identical scores for the same unseen item.
	q4, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING Popularity
		WHERE R.uid = 4 AND R.iid = 3`)
	if err != nil || len(q4.Rows) != 1 {
		t.Fatalf("user 4: %v %v", q4, err)
	}
	q1, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING Popularity
		WHERE R.uid = 1 AND R.iid = 3`)
	if err != nil || len(q1.Rows) != 1 {
		t.Fatalf("user 1: %v %v", q1, err)
	}
	if q1.Rows[0][1].Float() != q4.Rows[0][1].Float() {
		t.Fatal("popularity scores should be user-independent")
	}
	// Composes with joins like any other algorithm.
	qj, err := e.Query(`SELECT M.name, R.ratingval FROM ratings R, movies M
		RECOMMEND R.iid TO R.uid ON R.ratingval USING Popularity
		WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Sci-Fi'`)
	if err != nil || len(qj.Rows) != 1 || qj.Rows[0][0].Text() != "The Matrix" {
		t.Fatalf("popularity join: %v %v", qj, err)
	}
	// Works with the RecScoreIndex too.
	if err := recCache(t, e, "PopRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	qi, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING Popularity
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if qi.Explain.Strategy != "IndexRecommend" || len(qi.Rows) != 2 {
		t.Fatalf("popularity via index: %q %v", qi.Explain.Strategy, qi.Rows)
	}
}

func TestLikeBetweenInQueries(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT name FROM movies WHERE name LIKE 'The %'`)
	if err != nil || len(q.Rows) != 1 || q.Rows[0][0].Text() != "The Matrix" {
		t.Fatalf("LIKE: %v %v", q, err)
	}
	q, err = e.Query(`SELECT name FROM users WHERE age BETWEEN 20 AND 40 ORDER BY age`)
	if err != nil || len(q.Rows) != 2 {
		t.Fatalf("BETWEEN: %v %v", q, err)
	}
	// LIKE in HAVING via grouped text (max of genre).
	q, err = e.Query(`SELECT genre, COUNT(*) FROM movies GROUP BY genre HAVING genre LIKE 'S%' ORDER BY genre`)
	if err != nil || len(q.Rows) != 2 {
		t.Fatalf("LIKE in HAVING: %v %v", q, err)
	}
	// NOT BETWEEN composed with RECOMMEND rating predicate pushdown.
	createGeneralRec(t, e)
	q, err = e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 AND R.ratingval BETWEEN 1.0 AND 5.0`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "FilterRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	for _, r := range q.Rows {
		if r[1].Float() < 1 || r[1].Float() > 5 {
			t.Fatalf("rating pushdown leaked: %v", r)
		}
	}
}

func TestLimitOffset(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query(`SELECT uid, iid FROM ratings ORDER BY uid, iid LIMIT 2 OFFSET 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("limit/offset: %v", q.Rows)
	}
	// Full ordering: (1,1),(2,1),(2,2),(2,3),(3,1),(3,2),(4,2); offset 3
	// starts at (2,3).
	if q.Rows[0][0].Int() != 2 || q.Rows[0][1].Int() != 3 {
		t.Fatalf("offset start: %v", q.Rows[0])
	}
	// OFFSET without LIMIT.
	q, err = e.Query(`SELECT uid, iid FROM ratings ORDER BY uid, iid OFFSET 5`)
	if err != nil || len(q.Rows) != 2 {
		t.Fatalf("offset only: %v %v", q, err)
	}
	// OFFSET past the end yields nothing.
	q, err = e.Query(`SELECT uid FROM ratings OFFSET 100`)
	if err != nil || len(q.Rows) != 0 {
		t.Fatalf("offset beyond: %v %v", q, err)
	}
	// With RECOMMEND + materialized index, OFFSET disables limit pushdown
	// but still answers correctly.
	createGeneralRec(t, e)
	if err := recCache(t, e, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	all, err := e.Query(`SELECT R.iid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval
		WHERE R.uid = 1 ORDER BY R.ratingval DESC, R.iid ASC`)
	if err != nil {
		t.Fatal(err)
	}
	page, err := e.Query(`SELECT R.iid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval
		WHERE R.uid = 1 ORDER BY R.ratingval DESC, R.iid ASC LIMIT 1 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Rows) != 1 || page.Rows[0][0].Int() != all.Rows[1][0].Int() {
		t.Fatalf("paged recommend: %v vs all %v", page.Rows, all.Rows)
	}
}

func TestIndexRecommendRatingBoundPushdown(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	if err := recCache(t, e, "GeneralRec").MaterializeUser(2); err != nil {
		t.Fatal(err)
	}
	// User 2 rated everything, so materialization stores nothing; use a
	// user with unseen items instead.
	if err := recCache(t, e, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 AND R.ratingval <= 2.0
		ORDER BY R.ratingval DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "IndexRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	for _, r := range q.Rows {
		if r[1].Float() > 2.0 {
			t.Fatalf("bound leaked: %v", r)
		}
	}
	// Same answer as the online path.
	e.Planner().Source = exec.SourceScan
	q2, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 AND R.ratingval <= 2.0
		ORDER BY R.ratingval DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != len(q2.Rows) {
		t.Fatalf("bound pushdown changed results: %d vs %d", len(q.Rows), len(q2.Rows))
	}
}
