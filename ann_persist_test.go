package recdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/exec"
	"recdb/internal/storage"
	"recdb/internal/types"
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

// TestVectorIndexCorruptionFallsBackToExactScan sweeps corruption over
// the persisted index table (_rec_vecrec_annivf): damaged first chunk,
// damaged last chunk, a deleted tail, and a fully emptied table. In every
// case the planner must detect the bad index at decode time, fall back to
// the exact scan strategy, and return exactly the exact plan's rows — a
// corrupt index may cost speed, never correctness. SQL cannot write a
// model table, so the damage is planted below it, through the table's
// heap.
func TestVectorIndexCorruptionFallsBackToExactScan(t *testing.T) {
	// The exact baseline from an uncorrupted twin with the vector path
	// disabled by hand.
	base := newVectorDB(t)
	base.eng.Planner().Source = exec.SourceScan
	want := topK(t, base, vecQuery)
	if len(want) != 10 {
		t.Fatalf("baseline expected 10 rows, got %d", len(want))
	}

	// chunks returns the index table and the RID of each chunk, by seq:
	// Materialize loads the chunks in seq order.
	chunks := func(db *DB) (*catalog.Table, []storage.RID) {
		tab, err := db.eng.Catalog().Get("_rec_vecrec_annivf")
		if err != nil {
			t.Fatal(err)
		}
		var rids []storage.RID
		it := tab.Heap.Scan()
		defer it.Close()
		for {
			row, rid, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if seq := row[0].Int(); seq != int64(len(rids)) {
				t.Fatalf("chunk %d found where chunk %d belongs", seq, len(rids))
			}
			rids = append(rids, rid)
		}
		return tab, rids
	}
	setChunk := func(db *DB, seq int, text string) {
		tab, rids := chunks(db)
		if seq < 0 {
			seq += len(rids)
		}
		if _, err := tab.Update(rids[seq], types.Row{types.NewInt(int64(seq)), types.NewText(text)}); err != nil {
			t.Fatal(err)
		}
	}
	deleteFrom := func(db *DB, seq int) {
		tab, rids := chunks(db)
		for _, rid := range rids[seq:] {
			if err := tab.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name    string
		corrupt func(db *DB)
	}{
		{"first-chunk-garbled", func(db *DB) {
			setChunk(db, 0, "!!not base64!!")
		}},
		{"last-chunk-garbled", func(db *DB) {
			// Valid base64, wrong bytes: the trailing checksum must catch it.
			setChunk(db, -1, "AAAAAAAAAAAA")
		}},
		{"truncated-tail", func(db *DB) {
			_, rids := chunks(db)
			deleteFrom(db, len(rids)/2)
		}},
		{"emptied", func(db *DB) {
			deleteFrom(db, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newVectorDB(t)
			// Corrupt before the first vector query: the index decodes
			// lazily, so this is the state the planner will actually read.
			tc.corrupt(db)
			if got := explainStrategy(t, db, vecQuery); got != "FilterRecommend" {
				t.Fatalf("corrupt index did not fall back: strategy %s", got)
			}
			got := topK(t, db, vecQuery)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fallback rows diverge from exact plan:\ngot:  %v\nwant: %v", got, want)
			}
			if n, ok := db.Metrics().Get("ann.decode_failures"); !ok || n == 0 {
				t.Fatalf("ann.decode_failures not incremented (n=%d ok=%v)", n, ok)
			}
		})
	}
}
