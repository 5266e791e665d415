package engine

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// recommendUser1 is a top-10 RECOMMEND for user 1, who rated item 1 alone.
const recommendUser1 = `SELECT R.iid, R.ratingval FROM ratings R
	RECOMMEND R.iid TO R.uid ON R.ratingval USING %s
	WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`

// TestOnlyExecutedStatementsAreDemand: §IV-D's Users Histogram counts
// recommendation queries that ran. A plain EXPLAIN only plans, so it
// leaves no demand; a SELECT and an EXPLAIN ANALYZE each add one query.
func TestOnlyExecutedStatementsAreDemand(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	cache := recCache(t, e, "GeneralRec")
	q := fmt.Sprintf(recommendUser1, "ItemCosCF")
	run := func(stmt string) {
		t.Helper()
		if _, err := e.Query(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run("EXPLAIN " + q)
	}
	if s, ok := cache.UserStatOf(1); ok {
		t.Fatalf("plain EXPLAIN recorded demand: %+v", s)
	}
	if n := e.Metrics().Counter("reccache.queries").Value(); n != 0 {
		t.Fatalf("reccache.queries = %d after plain EXPLAIN, want 0", n)
	}
	for want, stmt := range []string{q, "EXPLAIN ANALYZE " + q} {
		run(stmt)
		if s, _ := cache.UserStatOf(1); s.QueryCount != int64(want+1) {
			t.Fatalf("after %.20q: QC = %d, want %d", stmt, s.QueryCount, want+1)
		}
	}
}

// TestDropRecommenderStopsCacheDaemon: DROP RECOMMENDER stops the
// recommender's running cache daemon; no maintenance run starts after it.
func TestDropRecommenderStopsCacheDaemon(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	recCache(t, e, "GeneralRec").Start(time.Millisecond)
	runs := e.Metrics().Counter("reccache.runs")
	for deadline := time.Now().Add(10 * time.Second); runs.Value() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("the daemon ran %d ticks in 10s", runs.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Exec("DROP RECOMMENDER GeneralRec"); err != nil {
		t.Fatal(err)
	}
	stopped := runs.Value()
	time.Sleep(20 * time.Millisecond) // twenty ticks of a daemon still running
	if n := runs.Value(); n != stopped {
		t.Fatalf("reccache.runs went %d -> %d after DROP RECOMMENDER", stopped, n)
	}
}

// TestRecreatedRecommenderHasAFreshCache: a recommender created under a
// dropped one's name, with another algorithm, starts from an empty
// RecScoreIndex. No user's tree is complete, so the top-k the old trees
// served is scored online with the new model.
func TestRecreatedRecommenderHasAFreshCache(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	old := recCache(t, e, "GeneralRec")
	if err := old.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Query(fmt.Sprintf(recommendUser1, "ItemCosCF"))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Explain.Strategy != "IndexRecommend" {
		t.Fatalf("fixture: the materialized top-k ran as %s", warm.Explain.Strategy)
	}
	if _, err := e.ExecScript(`DROP RECOMMENDER GeneralRec;
		CREATE RECOMMENDER GeneralRec ON ratings USERS FROM uid ITEMS FROM iid
		RATINGS FROM ratingval USING UserCosCF`); err != nil {
		t.Fatal(err)
	}
	r, _ := e.Recommenders().Get("GeneralRec")
	for _, u := range r.Store().UserIDs() {
		if !old.Index().Complete(u) {
			t.Fatalf("fixture: user %d has no tree in the dropped recommender's cache", u)
		}
		if r.Cache().Index().Complete(u) {
			t.Fatalf("user %d's tree is complete in the new recommender's cache", u)
		}
	}
	got, err := e.Query(fmt.Sprintf(recommendUser1, "UserCosCF"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Explain.Strategy != "FilterRecommend" || len(got.Rows) != len(warm.Rows) {
		t.Fatalf("got %d rows via %s, want %d via FilterRecommend", len(got.Rows), got.Explain.Strategy, len(warm.Rows))
	}
	for _, row := range got.Rows {
		want, ok := r.Store().Predict(1, row[0].Int())
		if !ok {
			want = 0
		}
		if math.Float64bits(row[1].Float()) != math.Float64bits(want) {
			t.Errorf("item %d scored %v, the new model predicts %v", row[0].Int(), row[1].Float(), want)
		}
	}
}
