package ontop

import (
	"fmt"
	"math"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/rec"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{})
	if _, err := e.ExecScript(`
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, genre TEXT);
		INSERT INTO movies VALUES
			(1, 'Spartacus', 'Action'), (2, 'Inception', 'Suspense'), (3, 'The Matrix', 'Sci-Fi');
		INSERT INTO ratings VALUES
			(1, 1, 1.5),
			(2, 2, 3.5), (2, 1, 4.5), (2, 3, 2),
			(3, 2, 1), (3, 1, 2),
			(4, 2, 1);
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCreateAndDrop(t *testing.T) {
	e := newEngine(t)
	c := New(e)
	if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", "ItemCosCF", rec.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", "", rec.BuildOptions{}); err == nil {
		t.Fatal("duplicate should fail")
	}
	if err := c.DropRecommender("R"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropRecommender("r"); err == nil {
		t.Fatal("double drop should fail")
	}
	if err := c.CreateRecommender("x", "missing", "uid", "iid", "ratingval", "", rec.BuildOptions{}); err == nil {
		t.Fatal("missing table should fail")
	}
	if err := c.CreateRecommender("x", "ratings", "uid", "iid", "ratingval", "Quantum", rec.BuildOptions{}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestQueryMatchesInDBMSResults(t *testing.T) {
	e := newEngine(t)

	// In-DBMS recommender.
	if _, err := e.Exec(`CREATE RECOMMENDER GeneralRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`); err != nil {
		t.Fatal(err)
	}
	inDB, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC`)
	if err != nil {
		t.Fatal(err)
	}

	// OnTopDB client over the same engine.
	c := New(e)
	if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", "ItemCosCF", rec.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	onTop, err := c.Query("r", fmt.Sprintf(
		`SELECT s.iid, s.ratingval FROM %s s WHERE s.uid = 1 ORDER BY s.ratingval DESC`, ScoresTable))
	if err != nil {
		t.Fatal(err)
	}

	if len(inDB.Rows) != len(onTop.Rows) {
		t.Fatalf("row counts differ: in-DBMS %d vs on-top %d", len(inDB.Rows), len(onTop.Rows))
	}
	for i := range inDB.Rows {
		if math.Abs(inDB.Rows[i][1].Float()-onTop.Rows[i][1].Float()) > 1e-9 {
			t.Fatalf("scores differ at %d: %v vs %v", i, inDB.Rows[i], onTop.Rows[i])
		}
	}
}

func TestQueryJoinShape(t *testing.T) {
	e := newEngine(t)
	c := New(e)
	if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", "SVD", rec.BuildOptions{SVDSeed: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("r", fmt.Sprintf(
		`SELECT s.uid, m.name, s.ratingval FROM %s s, movies m
		 WHERE s.uid = 3 AND m.mid = s.iid AND m.genre = 'Sci-Fi'
		 ORDER BY s.ratingval DESC`, ScoresTable))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Text() != "The Matrix" {
		t.Fatalf("on-top join: %v", res.Rows)
	}
}

// TestGeneratesForEveryUser pins the baseline's step 2 as the paper
// describes it: every query generates a score for each unrated
// (user, item) pair of every user, whoever the query is about.
func TestGeneratesForEveryUser(t *testing.T) {
	e := newEngine(t)
	c := New(e)
	if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", "", rec.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	all, err := c.Query("r", fmt.Sprintf(`SELECT s.uid, s.iid FROM %s s`, ScoresTable))
	if err != nil {
		t.Fatal(err)
	}
	// 4 users x 3 items, 7 of the pairs rated.
	if len(all.Rows) != 4*3-7 {
		t.Fatalf("generated %d scores, want %d: %v", len(all.Rows), 4*3-7, all.Rows)
	}
	one, err := c.Query("r", fmt.Sprintf(`SELECT s.iid FROM %s s WHERE s.uid = 1`, ScoresTable))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows) != 2 {
		t.Fatalf("user 1 has %d scores, want its 2 unrated items: %v", len(one.Rows), one.Rows)
	}
}

func TestScoresTableIsTransient(t *testing.T) {
	e := newEngine(t)
	c := New(e)
	if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", "", rec.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("r", "SELECT * FROM "+ScoresTable); err != nil {
		t.Fatal(err)
	}
	if e.Catalog().Has(ScoresTable) {
		t.Fatal("scores table should be dropped after the query")
	}
	if _, err := c.Query("missing", "SELECT * FROM "+ScoresTable); err == nil {
		t.Fatal("missing recommender should fail")
	}
}
