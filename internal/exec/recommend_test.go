package exec

import (
	"math"
	"sort"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/expr"
	"recdb/internal/rec"
	"recdb/internal/recindex"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// paperRatings is Figure 1(c) of the paper.
func paperRatings() []rec.Rating {
	return []rec.Rating{
		{User: 1, Item: 1, Value: 1.5},
		{User: 2, Item: 2, Value: 3.5}, {User: 2, Item: 1, Value: 4.5}, {User: 2, Item: 3, Value: 2},
		{User: 3, Item: 2, Value: 1}, {User: 3, Item: 1, Value: 2},
		{User: 4, Item: 2, Value: 1},
	}
}

func buildStore(t *testing.T, algo rec.Algorithm) *rec.ModelStore {
	t.Helper()
	store, err := rec.Build(paperRatings(), algo, rec.BuildOptions{SVDSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func recTestSchema() *types.Schema { return RecSchema("r", "uid", "iid", "ratingval") }

func TestRecommendFullItemCF(t *testing.T) {
	store := buildStore(t, rec.ItemCosCF)
	op := NewRecommend(store, recTestSchema())
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 1 emits one tuple per (user, item) pair: 4 users × 3 items.
	if len(rows) != 12 {
		t.Fatalf("emitted %d rows, want 12", len(rows))
	}
	for _, row := range rows {
		u, i, r := row[0].Int(), row[1].Int(), row[2].Float()
		if actual, rated := store.Seen(u, i); rated {
			if r != actual {
				t.Fatalf("rated pair (%d,%d) emitted %v, want actual %v", u, i, r, actual)
			}
			continue
		}
		want, ok := store.Predict(u, i)
		if !ok {
			want = 0
		}
		if math.Abs(r-want) > 1e-12 {
			t.Fatalf("pair (%d,%d) emitted %v, want %v", u, i, r, want)
		}
	}
}

func TestRecommendAllAlgorithms(t *testing.T) {
	for _, algo := range []rec.Algorithm{rec.ItemCosCF, rec.ItemPearCF, rec.UserCosCF, rec.UserPearCF, rec.SVD} {
		store := buildStore(t, algo)
		rows, err := Collect(NewRecommend(store, recTestSchema()))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(rows) != 12 {
			t.Fatalf("%v: %d rows", algo, len(rows))
		}
		for _, row := range rows {
			u, i, r := row[0].Int(), row[1].Int(), row[2].Float()
			if actual, rated := store.Seen(u, i); rated {
				if r != actual {
					t.Fatalf("%v: rated (%d,%d) = %v, want %v", algo, u, i, r, actual)
				}
				continue
			}
			want, ok := store.Predict(u, i)
			if !ok {
				want = 0
			}
			if math.Abs(r-want) > 1e-9 {
				t.Fatalf("%v: (%d,%d) = %v, want %v", algo, u, i, r, want)
			}
		}
	}
}

func TestFilterRecommendPrunesComputation(t *testing.T) {
	store := buildStore(t, rec.ItemCosCF)

	// Full recommend loads every user and scores every unseen pair; a
	// single-user, single-item FILTERRECOMMEND loads one user and scores
	// one pair.
	full := NewRecommend(store, recTestSchema())
	fullRows, err := Collect(full)
	if err != nil {
		t.Fatal(err)
	}

	op := NewRecommend(store, recTestSchema())
	op.Users = []int64{3}
	op.Items = []int64{3}
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("filtered recommend: %v", rows)
	}
	want, _ := store.Predict(3, 3)
	if math.Abs(rows[0][2].Float()-want) > 1e-12 {
		t.Fatalf("score %v, want %v", rows[0][2].Float(), want)
	}
	if op.Scored != 1 || full.Scored != len(store.UserIDs()) || len(fullRows) <= len(rows) {
		t.Fatalf("pushdown did not prune: full scored %d users into %d rows, filtered %d users into %d",
			full.Scored, len(fullRows), op.Scored, len(rows))
	}
}

func TestRecommendExcludeSeen(t *testing.T) {
	store := buildStore(t, rec.ItemCosCF)
	op := NewRecommend(store, recTestSchema())
	op.Users = []int64{2}
	op.IncludeSeen = false
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// User 2 rated all 3 items, so nothing is emitted.
	if len(rows) != 0 {
		t.Fatalf("expected no unseen items for user 2, got %v", rows)
	}
}

func TestRecommendRatingPredicate(t *testing.T) {
	store := buildStore(t, rec.ItemCosCF)
	op := NewRecommend(store, recTestSchema())
	op.RatingPred = compilePred(t, "r.ratingval >= 2.0", op.Schema())
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row[2].Float() < 2.0 {
			t.Fatalf("rating predicate leaked %v", row)
		}
	}
	if len(rows) == 0 {
		t.Fatal("some pairs should pass the predicate")
	}
}

func TestJoinRecommend(t *testing.T) {
	cat, store := catalog.New(nil, 0), buildStore(t, rec.ItemCosCF)
	movies := moviesFixture(t, cat)
	outer := NewFilter(NewSeqScan(movies, "m"),
		compilePred(t, "m.genre = 'Action'", movies.Schema.WithQualifier("m")))
	jr := NewRecommend(store, recTestSchema())
	jr.Outer, jr.OuterItemCol = outer, 0
	jr.Users = []int64{3}
	rows, err := Collect(jr)
	if err != nil {
		t.Fatal(err)
	}
	// Action movies: Spartacus (item 1, in the model) and Heat (item 4,
	// which nobody rated — unknown to the model and therefore skipped,
	// matching the other recommendation plans).
	if len(rows) != 1 {
		t.Fatalf("join recommend: %d rows", len(rows))
	}
	r := rows[0]
	if len(r) != 6 {
		t.Fatalf("joined width: %v", r)
	}
	// Item 1 was rated by user 3 → actual rating 2 (IncludeSeen default).
	if r[1].Int() != 1 || r[2].Float() != 2 {
		t.Fatalf("item 1 row: %v", r)
	}
}

func TestJoinRecommendAllUsers(t *testing.T) {
	cat, store := catalog.New(nil, 0), buildStore(t, rec.SVD)
	movies := moviesFixture(t, cat)
	outer := NewFilter(NewSeqScan(movies, "m"),
		compilePred(t, "m.mid = 2", movies.Schema.WithQualifier("m")))
	jr := NewRecommend(store, recTestSchema())
	jr.Outer, jr.OuterItemCol = outer, 0
	rows, err := Collect(jr)
	if err != nil {
		t.Fatal(err)
	}
	// One movie × 4 users.
	if len(rows) != 4 {
		t.Fatalf("join recommend all users: %d rows", len(rows))
	}
}

// indexRecommend builds the operator over the RecTree source.
func indexRecommend(ix *recindex.Index, users []int64) *Recommend {
	op := NewRecommend(nil, recTestSchema())
	op.Index, op.Users = ix, users
	return op
}

func TestIndexRecommendPhases(t *testing.T) {
	ix := recindex.New()
	var tree []recindex.Entry
	for i := int64(1); i <= 20; i++ {
		tree = append(tree, recindex.Entry{Item: i, Score: float64(i) / 2})
	}
	ix.Fill(ix.Generation(), 7, tree)
	op := indexRecommend(ix, []int64{7})
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("phase I: %d rows", len(rows))
	}
	// Descending score order.
	for i := 1; i < len(rows); i++ {
		if rows[i][2].Float() > rows[i-1][2].Float() {
			t.Fatal("not in descending score order")
		}
	}
	// Phase II: rating bound.
	max := 5.0
	op = indexRecommend(ix, []int64{7})
	op.MaxScore = &max
	rows, _ = Collect(op)
	if len(rows) != 10 || rows[0][2].Float() != 5 {
		t.Fatalf("phase II: %d rows, top %v", len(rows), rows[0])
	}
	// Phase III: item filter.
	op = indexRecommend(ix, []int64{7})
	op.Items = []int64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	rows, _ = Collect(op)
	if len(rows) != 10 {
		t.Fatalf("phase III: %d rows", len(rows))
	}
	// Row target pushed into the traversal.
	op = indexRecommend(ix, []int64{7})
	op.K = 3
	rows, _ = Collect(op)
	if len(rows) != 3 || rows[0][2].Float() != 10 {
		t.Fatalf("limit: %v", rows)
	}
	// Residual rating predicate.
	op = indexRecommend(ix, []int64{7})
	op.RatingPred = compilePred(t, "r.ratingval > 9.0", recTestSchema())
	rows, _ = Collect(op)
	if len(rows) != 2 {
		t.Fatalf("residual: %v", rows)
	}
}

func TestIndexRecommendRequiresUsers(t *testing.T) {
	op := indexRecommend(recindex.New(), nil)
	if err := op.Open(); err == nil {
		t.Fatal("INDEXRECOMMEND without users should fail")
	}
}

// TestTopKEqualsStableSortLimit pins the fused top-k's contract for every
// streaming source: with K set the operator emits, per user, exactly what
// a stable descending Sort on the rating followed by Limit K would leave —
// ties in emission order — for K below, at and above the row count.
func TestTopKEqualsStableSortLimit(t *testing.T) {
	for _, algo := range []rec.Algorithm{rec.ItemCosCF, rec.UserCosCF, rec.SVD, rec.Popularity} {
		store := buildStore(t, algo)
		build := func() *Recommend {
			op := NewRecommend(store, recTestSchema())
			op.Users = []int64{4, 1}
			op.Items = []int64{3, 1, 2} // predicate order, not id order
			return op
		}
		all, err := Collect(build())
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			var want []types.Row
			for _, u := range []int64{4, 1} {
				var mine []types.Row
				for _, r := range all {
					if r[0].Int() == u {
						mine = append(mine, r)
					}
				}
				sort.SliceStable(mine, func(a, b int) bool { return mine[a][2].Float() > mine[b][2].Float() })
				want = append(want, mine[:min(k, len(mine))]...)
			}
			op := build()
			op.K = int64(k)
			got, err := Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v k=%d: %d rows, want %d", algo, k, len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Fatalf("%v k=%d row %d: %v, want %v", algo, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRecommendComposesWithSortLimit(t *testing.T) {
	// Query 1 shape: recommend → filter uid → sort by rating desc → limit.
	store := buildStore(t, rec.ItemCosCF)
	op := NewRecommend(store, recTestSchema())
	op.Users = []int64{1}
	op.IncludeSeen = false
	schema := op.Schema()
	key := compileExprForTest(t, "r.ratingval", schema)
	top := NewLimit(NewSort(op, []SortKey{{Expr: key, Desc: true}}), 2)
	rows, err := Collect(top)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("top-k: %v", rows)
	}
	if rows[0][2].Float() < rows[1][2].Float() {
		t.Fatal("top-k not sorted")
	}
	// Highest prediction for user 1 among unseen items {2,3}.
	p2, _ := store.Predict(1, 2)
	p3, _ := store.Predict(1, 3)
	want := math.Max(p2, p3)
	if math.Abs(rows[0][2].Float()-want) > 1e-12 {
		t.Fatalf("top score %v, want %v", rows[0][2].Float(), want)
	}
}

func compileExprForTest(t testing.TB, e string, schema *types.Schema) expr.Compiled {
	t.Helper()
	stmt, err := sql.Parse("SELECT " + e + " FROM t")
	if err != nil {
		t.Fatal(err)
	}
	c, err := expr.Compile(stmt.(*sql.Select).Items[0].Expr, schema)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
