package recdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"recdb/internal/recindex"
)

func newDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(db.Close)
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	db.MustExec(`INSERT INTO ratings VALUES
		(1, 1, 1.5),
		(2, 2, 3.5), (2, 1, 4.5), (2, 3, 2),
		(3, 2, 1), (3, 1, 2),
		(4, 2, 1)`)
	return db
}

func TestOpenExecQuery(t *testing.T) {
	db := newDB(t)
	rows, err := db.Query("SELECT uid, iid, ratingval FROM ratings WHERE uid = 2 ORDER BY iid")
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 3 || got[0] != "uid" {
		t.Fatalf("columns: %v", got)
	}
	if rows.Len() != 3 {
		t.Fatalf("len: %d", rows.Len())
	}
	var count int
	for rows.Next() {
		var uid, iid int64
		var rv float64
		if err := rows.Scan(&uid, &iid, &rv); err != nil {
			t.Fatal(err)
		}
		if uid != 2 {
			t.Fatalf("uid = %d", uid)
		}
		count++
	}
	if count != 3 {
		t.Fatalf("iterated %d rows", count)
	}
}

func TestScanVariants(t *testing.T) {
	db := newDB(t)
	db.MustExec("CREATE TABLE t (i INT, f FLOAT, s TEXT, b BOOLEAN)")
	db.MustExec("INSERT INTO t VALUES (7, 2.5, 'hello', TRUE)")
	rows, err := db.Query("SELECT i, f, s, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	var i int64
	var f float64
	var s string
	var b bool
	if err := rows.Scan(&i, &f, &s, &b); err != nil {
		t.Fatal(err)
	}
	if i != 7 || f != 2.5 || s != "hello" || !b {
		t.Fatalf("scanned %v %v %v %v", i, f, s, b)
	}
	// Coercions and errors.
	var v Value
	var f2, f3, f4 float64
	if err := rows.Scan(&f2, &f3, &v, &v); err != nil {
		t.Fatal(err) // int coerces to float; Value accepts anything
	}
	_ = f4
	if err := rows.Scan(&i, &f, &s); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if err := rows.Scan(&i, &f, &f, &b); err == nil {
		t.Fatal("text into float should fail")
	}
	if rows.Next() {
		t.Fatal("only one row expected")
	}
}

func TestEndToEndRecommendation(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE RECOMMENDER MovieRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
	rows, err := db.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Strategy() != "FilterRecommend" {
		t.Fatalf("len=%d strategy=%q", rows.Len(), rows.Strategy())
	}

	// Materialize and re-run: strategy switches to IndexRecommend with the
	// same answer.
	if err := db.Materialize("MovieRec"); err != nil {
		t.Fatal(err)
	}
	rows2, err := db.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if rows2.Strategy() != "IndexRecommend" {
		t.Fatalf("strategy after materialize: %q", rows2.Strategy())
	}
	if rows2.Len() != rows.Len() {
		t.Fatalf("results differ: %d vs %d", rows2.Len(), rows.Len())
	}
}

func TestModelBuildTime(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`)
	d, err := db.ModelBuildTime("r")
	if err != nil || d <= 0 {
		t.Fatalf("build time: %v %v", d, err)
	}
	if _, err := db.ModelBuildTime("nope"); err == nil {
		t.Fatal("missing recommender should fail")
	}
}

func TestStats(t *testing.T) {
	db := newDB(t)
	reads, _, _ := db.Stats()
	if reads == 0 {
		t.Fatal("inserts should have counted page reads")
	}
	db.MustExec(`SELECT * FROM ratings WHERE uid = 1`)
	after, _, _ := db.Stats()
	if after <= reads {
		t.Fatalf("a scan should add page reads: %d then %d", reads, after)
	}
}

func TestCacheDaemonLifecycle(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`)
	if err := db.StartCacheDaemon("r", 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := db.StopCacheDaemon("r"); err != nil {
		t.Fatal(err)
	}
	if err := db.StartCacheDaemon("missing", time.Second); err == nil {
		t.Fatal("missing recommender should fail")
	}
	if _, err := db.RunCacheMaintenance("missing"); err == nil {
		t.Fatal("maintenance of a missing recommender should fail")
	}
	if err := db.Materialize("missing"); err == nil {
		t.Fatal("materialize of a missing recommender should fail")
	}
}

// TestCacheDaemonAdmitsFromTheCurrentModel: the cache daemon reads the
// recommender's model on every tick, so after a rebuild between two ticks
// every tree it fills carries the rebuilt model's predictions, bit for
// bit — not the predictions of the model that was current when the daemon
// started.
func TestCacheDaemonAdmitsFromTheCurrentModel(t *testing.T) {
	db := newDB(t, WithHotnessThreshold(0))
	db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`)
	r, _ := db.eng.Recommenders().Get("r")
	c := r.Cache()
	runs := func() int64 {
		v, _ := db.Metrics().Get("reccache.runs")
		return v
	}
	// waitRuns waits until the daemon has started n more ticks.
	waitRuns := func(n int64) {
		t.Helper()
		want := runs() + n
		for deadline := time.Now().Add(10 * time.Second); runs() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("the daemon ran %d ticks, want %d", runs(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := db.StartCacheDaemon("r", time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.StopCacheDaemon("r") })
	waitRuns(1)

	// New ratings change item 3's similarities, then the model is rebuilt
	// between ticks. User 3 rated items 1 and 2 differently, so their
	// weights decide the prediction for item 3.
	old := r.Store()
	db.MustExec("INSERT INTO ratings VALUES (4, 3, 5), (4, 1, 3)")
	if err := db.eng.Recommenders().Rebuild("r"); err != nil {
		t.Fatal(err)
	}
	c.RecordQuery(3)
	c.RecordUpdate(3)
	waitRuns(2) // the first may have started before the records
	if err := db.StopCacheDaemon("r"); err != nil {
		t.Fatal(err)
	}

	current := r.Store()
	was, _ := old.Predict(3, 3)
	now, _ := current.Predict(3, 3)
	if math.Float64bits(was) == math.Float64bits(now) {
		t.Fatalf("fixture: the rebuild left the prediction for (3, 3) at %v", now)
	}
	if !c.Index().Complete(3) {
		t.Fatal("the daemon never admitted user 3 after the rebuild")
	}
	entries := 0
	for _, u := range current.UserIDs() {
		c.Index().Descend(u, nil, func(e recindex.Entry) bool {
			entries++
			want, ok := current.Predict(u, e.Item)
			if !ok {
				want = 0
			}
			if math.Float64bits(e.Score) != math.Float64bits(want) {
				t.Errorf("admitted (%d, %d) at %v, the current model predicts %v", u, e.Item, e.Score, want)
			}
			return true
		})
	}
	if entries != c.Index().Len() {
		t.Fatalf("walked %d entries of the model's users, the index holds %d", entries, c.Index().Len())
	}
}

func TestRunCacheMaintenance(t *testing.T) {
	db := newDB(t, WithHotnessThreshold(0.1))
	db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`)
	// Drive demand + consumption, then run maintenance.
	for i := 0; i < 5; i++ {
		if _, err := db.Query(`SELECT R.iid FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 1`); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("INSERT INTO ratings VALUES (4, 3, 2.0)")
	dec, err := db.RunCacheMaintenance("r")
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted == 0 {
		t.Fatalf("maintenance admitted nothing: %+v", dec)
	}
}

// TestHotUserIsServedFromItsRecTree: one Algorithm 4 pass finds user 1
// hot through the pair (user 1, item 3) and fills user 1's RecTree whole,
// so the top-10 is served by IndexRecommend: both unrated items, the same
// rows bit for bit as scored online.
func TestHotUserIsServedFromItsRecTree(t *testing.T) {
	db := newDB(t, WithHotnessThreshold(0.1))
	db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
	topK := func() ([][2]float64, string) {
		t.Helper()
		rows, err := db.Query(`SELECT R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`)
		if err != nil {
			t.Fatal(err)
		}
		var out [][2]float64
		for rows.Next() {
			var iid int64
			var score float64
			if err := rows.Scan(&iid, &score); err != nil {
				t.Fatal(err)
			}
			out = append(out, [2]float64{float64(iid), score})
		}
		return out, rows.Strategy()
	}
	for i := 0; i < 5; i++ {
		topK() // demand from user 1
	}
	db.MustExec("INSERT INTO ratings VALUES (4, 3, 2.0)") // consumption on item 3
	want, strategy := topK()
	if len(want) != 2 || strategy != "FilterRecommend" {
		t.Fatalf("user 1 has two unrated items, top-10 gave %v via %s", want, strategy)
	}
	dec, err := db.RunCacheMaintenance("r")
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted != 1 {
		t.Fatalf("maintenance admitted %d users, want user 1 alone: %+v", dec.Admitted, dec)
	}
	got, strategy := topK()
	if strategy != "IndexRecommend" || len(got) != len(want) {
		t.Fatalf("after maintenance: %v via %s, want %v via IndexRecommend", got, strategy, want)
	}
	for x := range want {
		if got[x][0] != want[x][0] || math.Float64bits(got[x][1]) != math.Float64bits(want[x][1]) {
			t.Fatalf("after maintenance: %v, scored online %v", got, want)
		}
	}
}

// TestHotnessThresholdZeroAdmitsEveryPair: §IV-D's "0 materializes
// everything" — threshold 0 fills the tree, every pair, of each user with
// demand, including one whose hotness is under the 0.5 a database gets by
// default.
func TestHotnessThresholdZeroAdmitsEveryPair(t *testing.T) {
	for _, c := range []struct {
		opts     []Option
		admitted int
	}{
		{nil, 1},
		{[]Option{WithHotnessThreshold(0)}, 2},
	} {
		db := newDB(t, c.opts...)
		db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`)
		// Users 1 and 3 have not rated item 3; user 3's demand is a fifth
		// of user 1's, so the pair (3, 3) is 0.2 hot.
		for _, u := range []int{1, 1, 1, 1, 1, 3} {
			if _, err := db.Query(fmt.Sprintf(`SELECT R.iid FROM ratings R
				RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = %d`, u)); err != nil {
				t.Fatal(err)
			}
		}
		db.MustExec("INSERT INTO ratings VALUES (4, 3, 2.0)") // consumption on item 3
		dec, err := db.RunCacheMaintenance("r")
		if err != nil {
			t.Fatal(err)
		}
		if dec.Admitted != c.admitted {
			t.Fatalf("%d options: admitted %d users, want %d", len(c.opts), dec.Admitted, c.admitted)
		}
		r, _ := db.eng.Recommenders().Get("r")
		if ix := r.Cache().Index(); !ix.Complete(1) || ix.Complete(3) != (c.admitted == 2) {
			t.Fatalf("%d options: trees for users 1 and 3: %v, %v", len(c.opts), ix.Complete(1), ix.Complete(3))
		}
	}
}

func TestOptionsApply(t *testing.T) {
	db := Open(
		WithPoolPages(64),
		WithSVD(4, 5, 0.02, 0.1),
		WithRebuildThresholdPct(50),
		WithHotnessThreshold(0.9),
	)
	defer db.Close()
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	db.MustExec(`INSERT INTO ratings VALUES (1,1,5),(1,2,3),(2,1,4)`)
	db.MustExec(`CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`)
	rows, err := db.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD WHERE R.uid = 2`)
	if err != nil || rows.Len() != 1 {
		t.Fatalf("svd query: %v %v", rows, err)
	}
}

func TestErrorsSurface(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.Exec("SELECT FROM"); err == nil {
		t.Fatal("syntax error should surface")
	}
	if _, err := db.Query("SELECT * FROM missing"); err == nil {
		t.Fatal("missing table should surface")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustExec should panic on error")
		}
	}()
	db.MustExec("NONSENSE")
}

func TestExecScript(t *testing.T) {
	db := Open()
	defer db.Close()
	res, err := db.ExecScript(`
		CREATE TABLE a (x INT);
		INSERT INTO a VALUES (1), (2), (3);
	`)
	if err != nil || res.RowsAffected != 3 {
		t.Fatalf("script: %v %v", res, err)
	}
	if _, err := db.ExecScript("CREATE TABLE b (x INT); BROKEN;"); err == nil {
		t.Fatal("script error should surface")
	}
}

func TestAlgorithmsList(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 6 || algos[0] != "ItemCosCF" {
		t.Fatalf("algorithms: %v", algos)
	}
	joined := strings.Join(algos, ",")
	for _, want := range []string{"ItemPearCF", "UserCosCF", "UserPearCF", "SVD", "Popularity"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s in %v", want, algos)
		}
	}
}

func TestIntrospection(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE RECOMMENDER IntroRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`)
	tables := db.Tables()
	names := map[string]bool{}
	for _, ti := range tables {
		names[ti.Name] = true
		if ti.Name == "ratings" && ti.Rows != 7 {
			t.Fatalf("ratings rows: %d", ti.Rows)
		}
	}
	if !names["ratings"] || !names["_rec_introrec_userfactor"] {
		t.Fatalf("tables: %v", tables)
	}
	recs := db.Recommenders()
	if len(recs) != 1 || recs[0].Name != "IntroRec" || recs[0].Algorithm != "SVD" {
		t.Fatalf("recommenders: %+v", recs)
	}
	if recs[0].BuildTime <= 0 || recs[0].Rebuilds != 0 {
		t.Fatalf("recommender stats: %+v", recs[0])
	}
}

// pointLookupDB makes a ratings table indexed on uid with perUser rows for
// each of users users, as the ledger's ratings relation holds them: in
// the seed-batch layout (one INSERT per user, so a user's rows share
// pages) or interleaved (one INSERT per round with one row per user, the
// layout a stream of single-row INSERTs leaves, so every row of a user is
// on its own page once rows outnumber a page).
func pointLookupDB(tb testing.TB, users, perUser int, interleaved bool) *DB {
	db := Open()
	tb.Cleanup(db.Close)
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	db.MustExec(`CREATE INDEX ratings_uid ON ratings (uid)`)
	row := func(u, i int) string { return fmt.Sprintf("(%d, %d, %d)", u, (u*7+i*13)%500+1, 1+(u+i)%5) }
	if interleaved {
		for i := 0; i < perUser; i++ {
			vals := make([]string, users)
			for u := range vals {
				vals[u] = row(u+1, i)
			}
			db.MustExec("INSERT INTO ratings VALUES " + strings.Join(vals, ", "))
		}
		return db
	}
	for u := 1; u <= users; u++ {
		vals := make([]string, perUser)
		for i := range vals {
			vals[i] = row(u, i)
		}
		db.MustExec("INSERT INTO ratings VALUES " + strings.Join(vals, ", "))
	}
	return db
}

// TestPointLookupAllocs: an indexed point lookup through db.Query — the
// ledger's most frequent statement — allocates a constant per statement
// for parse, plan and result, not per row returned nor per row of the
// table: the index scan copies a batch's tuples into one buffer and
// decodes them into one slab of values; the projection makes its rows
// from a first slab of 8 and one sized to the scan's candidates left, and
// the result array is made once at the candidates' count. Two fixtures of
// 50 users, with 56 and with 224 (4×) rows per user, run the same
// statements for uid 7. Measured on go1.24/amd64: 22 allocations for
// SELECT * and 32 for SELECT iid, ratingval, at both sizes; before the
// slabs, 147 and 211 at 56 rows and 487 and 719 at 224 (the old budget
// was 3 per row plus 32). The budget is no more at 224 rows than at 56,
// and 40 at either. A batch is 256 rows, so past that an answer takes a
// few allocations more per batch.
func TestPointLookupAllocs(t *testing.T) {
	for _, q := range []string{
		"SELECT * FROM ratings WHERE uid = 7",
		"SELECT iid, ratingval FROM ratings WHERE uid = 7",
	} {
		var allocs [2]float64
		for k, perUser := range []int{56, 224} {
			db := pointLookupDB(t, 50, perUser, false)
			allocs[k] = testing.AllocsPerRun(20, func() {
				if rows, err := db.Query(q); err != nil || rows.Len() != perUser {
					t.Fatalf("%s: %v rows, %v", q, rows, err)
				}
			})
		}
		t.Logf("%s: %.0f allocations at 56 rows, %.0f at 224", q, allocs[0], allocs[1])
		if allocs[1] > allocs[0] || allocs[0] > 40 {
			t.Fatalf("%s: %.0f allocations at 56 rows, %.0f at 224; budget 40 and no growth", q, allocs[0], allocs[1])
		}
	}
}

// TestRecommendTop10Allocs: the ledger's un-materialised ItemCosCF top-10
// through db.Query allocates a constant per statement — parse, plan, the
// scorer's item-sized arrays (one allocation each, whatever their length)
// and the ten rows, made only for the rows returned — not per candidate
// item. Two fixtures of 94 users, each rating about 21 items, one over 84
// items and one over 336 (4×), run the same statement for the same user.
// Measured on go1.24/amd64: 59 allocations at both sizes (the scorer
// before position addressing: 84 and 107, a row made per candidate that
// reached the bounded top-10). The budget is no more at 336 items than at
// 84, and 72 at either.
func TestRecommendTop10Allocs(t *testing.T) {
	measure := func(items int) float64 {
		db := Open()
		t.Cleanup(db.Close)
		db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
		db.MustExec(`CREATE INDEX ratings_uid ON ratings (uid)`)
		state := uint64(7)
		for u := 1; u <= 94; u++ {
			var vals []string
			for i := 1; i <= items; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				if (state>>33)%uint64(items/21) == 0 {
					vals = append(vals, fmt.Sprintf("(%d, %d, %d)", u, i, 1+(state>>40)%5))
				}
			}
			db.MustExec("INSERT INTO ratings VALUES " + strings.Join(vals, ", "))
		}
		db.MustExec(`CREATE RECOMMENDER BenchCos ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
		const q = `SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF WHERE R.uid = 7 ORDER BY R.ratingval DESC LIMIT 10`
		return testing.AllocsPerRun(20, func() {
			if rows, err := db.Query(q); err != nil || rows.Len() != 10 {
				t.Fatalf("%s: %v rows, %v", q, rows, err)
			}
		})
	}
	small, large := measure(84), measure(336)
	if large > small || large > 72 || small > 72 {
		t.Fatalf("allocations per top-10: %.0f at 84 items, %.0f at 336; budget 72 and no growth", small, large)
	}
}
