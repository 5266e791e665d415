package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"recdb/internal/exec"
	"recdb/internal/rec"
)

// TestDifferentialSQLVsModel cross-checks the whole SQL path (parser →
// planner → operators → model store) against a model rec.Build makes from
// the same ratings: for random rating matrices, the RECOMMEND clause must
// return exactly the model's predictions (Predict) for every user's unseen
// items, under every plan variant.
func TestDifferentialSQLVsModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func() int64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := (rng >> 33) & 0x7FFFFFFF
			return v
		}
		// Random sparse matrix: up to 12 users × 16 items.
		var ratings []rec.Rating
		var rows []string
		seen := map[[2]int64]bool{}
		n := 10 + int(next()%40)
		for len(ratings) < n {
			u := 1 + next()%12
			i := 1 + next()%16
			if seen[[2]int64{u, i}] {
				continue
			}
			seen[[2]int64{u, i}] = true
			v := float64(1 + next()%5)
			ratings = append(ratings, rec.Rating{User: u, Item: i, Value: v})
			rows = append(rows, fmt.Sprintf("(%d, %d, %g)", u, i, v))
		}

		e := New(Config{})
		if _, err := e.Exec("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"); err != nil {
			return false
		}
		if _, err := e.Exec("INSERT INTO ratings VALUES " + strings.Join(rows, ", ")); err != nil {
			return false
		}
		if _, err := e.Exec(`CREATE RECOMMENDER DiffRec ON ratings
			USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`); err != nil {
			return false
		}
		model, err := rec.Build(ratings, rec.ItemCosCF, rec.BuildOptions{})
		if err != nil {
			return false
		}

		check := func() bool {
			q, err := e.Query(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
				RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF`)
			if err != nil {
				return false
			}
			want := map[[2]int64]float64{}
			for _, u := range model.UserIDs() {
				for _, i := range model.ItemIDs() {
					if _, rated := model.Seen(u, i); rated {
						continue
					}
					p, ok := model.Predict(u, i)
					if !ok {
						p = 0
					}
					want[[2]int64{u, i}] = p
				}
			}
			if len(q.Rows) != len(want) {
				return false
			}
			for _, r := range q.Rows {
				key := [2]int64{r[0].Int(), r[1].Int()}
				w, ok := want[key]
				if !ok || math.Abs(r[2].Float()-w) > 1e-9 {
					return false
				}
			}
			return true
		}

		// Plain plan.
		if !check() {
			return false
		}
		// The forced scan source must agree.
		e.Planner().Source = exec.SourceScan
		ok := check()
		e.Planner().Source = exec.SourceAuto
		if !ok {
			return false
		}
		// Per-user FilterRecommend plans must agree with the model too.
		for _, u := range model.UserIDs() {
			q, err := e.Query(fmt.Sprintf(`SELECT R.iid, R.ratingval FROM ratings R
				RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
				WHERE R.uid = %d`, u))
			if err != nil {
				return false
			}
			for _, r := range q.Rows {
				p, ok := model.Predict(u, r[0].Int())
				if !ok {
					p = 0
				}
				if math.Abs(r[1].Float()-p) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexRecommendWithItemFilter checks iid pushdown through the
// RecScoreIndex path (Phase III of Algorithm 3) at the SQL level.
func TestIndexRecommendWithItemFilter(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	if err := recCache(t, e, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 AND R.iid IN (2, 99)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "IndexRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	if len(q.Rows) != 1 || q.Rows[0][0].Int() != 2 {
		t.Fatalf("item filter through index: %v", q.Rows)
	}
}
