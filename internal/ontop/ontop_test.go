package ontop

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
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

// TestScoresTableAddsInAscendingID: OnTopDB's scores table has the bits of
// the in-DBMS RECOMMEND for every model family — item-based, user-based
// and SVD — and, for the neighbourhood models, on ratings where Equation 2
// added strongest neighbour first would round differently.
func TestScoresTableAddsInAscendingID(t *testing.T) {
	e := engine.New(engine.Config{})
	if _, err := e.Exec("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"); err != nil {
		t.Fatal(err)
	}
	state := uint64(11)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	var ratings []rec.Rating
	var values []string
	for u := int64(1); u <= 30; u++ {
		for i := int64(1); i <= 40; i++ {
			if next()%3 == 0 {
				r := rec.Rating{User: u, Item: i, Value: 1 + float64(next()%4000)/997}
				ratings = append(ratings, r)
				values = append(values, fmt.Sprintf("(%d, %d, %v)", u, i, r.Value))
			}
		}
	}
	if _, err := e.Exec("INSERT INTO ratings VALUES " + strings.Join(values, ", ")); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"ItemCosCF", "ItemPearCF", "UserPearCF", "SVD"} {
		if _, err := e.Exec(fmt.Sprintf(`CREATE RECOMMENDER In%s ON ratings
			USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING %s`, algo, algo)); err != nil {
			t.Fatal(err)
		}
		inDB, err := e.Query(fmt.Sprintf(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING %s`, algo))
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[[2]int64]float64, len(inDB.Rows))
		for _, r := range inDB.Rows {
			want[[2]int64{r[0].Int(), r[1].Int()}] = r[2].Float()
		}
		c := New(e)
		if err := c.CreateRecommender("r", "ratings", "uid", "iid", "ratingval", algo, rec.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		onTop, err := c.Query("r", "SELECT s.uid, s.iid, s.ratingval FROM "+ScoresTable+" s")
		if err != nil {
			t.Fatal(err)
		}
		if len(onTop.Rows) == 0 || len(onTop.Rows) != len(inDB.Rows) {
			t.Fatalf("%s: OnTopDB scored %d pairs, RECOMMEND %d", algo, len(onTop.Rows), len(inDB.Rows))
		}
		for _, r := range onTop.Rows {
			key := [2]int64{r[0].Int(), r[1].Int()}
			if w, ok := want[key]; !ok || math.Float64bits(w) != math.Float64bits(r[2].Float()) {
				t.Fatalf("%s: OnTopDB scores %v %v, RECOMMEND %v (present %v)", algo, key, r[2].Float(), w, ok)
			}
		}
		if algo == "SVD" {
			continue
		}
		if diverged := strongestFirstDivergence(t, ratings, algo); diverged == 0 {
			t.Fatalf("%s fixture: strongest-first and ascending-id order agree on every pair", algo)
		}
	}
}

// strongestFirstDivergence counts the (user, item) pairs whose Equation 2
// sum, added in descending |sim|, differs in its bits from the in-memory
// model's.
func strongestFirstDivergence(t *testing.T, ratings []rec.Rating, algo string) int {
	t.Helper()
	a, err := rec.ParseAlgorithm(algo)
	if err != nil {
		t.Fatal(err)
	}
	model, err := rec.Build(ratings, a, rec.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byUser, byItem := map[int64]map[int64]float64{}, map[int64]map[int64]float64{}
	for _, r := range ratings {
		if byUser[r.User] == nil {
			byUser[r.User] = map[int64]float64{}
		}
		if byItem[r.Item] == nil {
			byItem[r.Item] = map[int64]float64{}
		}
		byUser[r.User][r.Item], byItem[r.Item][r.User] = r.Value, r.Value
	}
	diverged := 0
	for _, u := range model.UserIDs() {
		for _, i := range model.ItemIDs() {
			list, known := model.ItemNeighbors(i), byUser[u]
			if !a.ItemBased() {
				list, known = model.UserNeighbors(u), byItem[i]
			}
			list = slices.Clone(list)
			slices.SortFunc(list, func(a, b rec.Neighbor) int {
				if c := cmp.Compare(math.Abs(b.Sim), math.Abs(a.Sim)); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
			var num, den float64
			for _, n := range list {
				if r, ok := known[n.ID]; ok {
					num += n.Sim * r
					den += math.Abs(n.Sim)
				}
			}
			if got, ok := model.Predict(u, i); ok && math.Float64bits(got) != math.Float64bits(num/den) {
				diverged++
			}
		}
	}
	return diverged
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
