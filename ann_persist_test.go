package recdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// newVectorDB seeds a database whose item universe is large enough that
// the planner's vector strategy runs in probe mode (well above the
// exact-fallback threshold), with genre-structured ratings so the SVD
// latent space actually clusters.
func newVectorDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	t.Cleanup(db.Close)
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	const users, items, perUser = 30, 200, 30
	rng := uint64(99)
	next := func(n int) int {
		rng = rng*2862933555777941757 + 3037000493
		return int((rng >> 33) % uint64(n))
	}
	var rows []string
	for u := 1; u <= users; u++ {
		seen := map[int]bool{}
		for len(seen) < perUser {
			i := 1 + next(items)
			if seen[i] {
				continue
			}
			seen[i] = true
			v := 2
			if u%6 == i%6 {
				v = 5
			}
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", u, i, v+next(2)))
		}
	}
	db.MustExec("INSERT INTO ratings VALUES " + strings.Join(rows, ", "))
	db.MustExec(`CREATE RECOMMENDER VecRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`)
	return db
}

const vecQuery = `SELECT R.uid, R.iid, R.ratingval FROM ratings R
	RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
	WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`

// explainStrategy returns the strategy line of EXPLAIN output.
func explainStrategy(t *testing.T, db *DB, q string) string {
	t.Helper()
	rows, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(line, "strategy: ") {
			return strings.TrimPrefix(line, "strategy: ")
		}
	}
	t.Fatalf("EXPLAIN output has no strategy line")
	return ""
}

// topK materializes q's (uid, iid, score) rows.
func topK(t *testing.T, db *DB, q string) [][3]interface{} {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var out [][3]interface{}
	for rows.Next() {
		var uid, iid int64
		var score float64
		if err := rows.Scan(&uid, &iid, &score); err != nil {
			t.Fatal(err)
		}
		out = append(out, [3]interface{}{uid, iid, score})
	}
	return out
}

// TestVectorIndexSurvivesCheckpointRecovery: after a checkpoint and
// reopen, the recommender (and its IVF index) is rebuilt from the
// recovered ratings, the planner still picks the vector strategy, and the
// deterministic retrain reproduces the exact same top-k.
func TestVectorIndexSurvivesCheckpointRecovery(t *testing.T) {
	db := newVectorDB(t)
	if got := explainStrategy(t, db, vecQuery); got != "VectorRecommend" {
		t.Fatalf("strategy before checkpoint: %s", got)
	}
	before := topK(t, db, vecQuery)
	if len(before) != 10 {
		t.Fatalf("expected 10 rows, got %d", len(before))
	}

	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	if got := explainStrategy(t, db2, vecQuery); got != "VectorRecommend" {
		t.Fatalf("strategy after recovery: %s", got)
	}
	after := topK(t, db2, vecQuery)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("top-k changed across checkpoint+recovery:\nbefore: %v\nafter:  %v", before, after)
	}
}
