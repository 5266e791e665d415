package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"recdb/internal/exec"
	"recdb/internal/fault"
	"recdb/internal/rec"
	"recdb/internal/reccache"
	"recdb/internal/wal"
)

// newMovieDB builds the paper's running example (Figure 1): users, movies,
// and ratings tables.
func newMovieDB(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{})
	script := `
		CREATE TABLE users (uid INT PRIMARY KEY, name TEXT, city TEXT, age INT, gender TEXT);
		CREATE TABLE movies (mid INT PRIMARY KEY, name TEXT, director TEXT, genre TEXT);
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		INSERT INTO users VALUES
			(1, 'Alice', 'Minneapolis, MN', 18, 'Female'),
			(2, 'Bob', 'Austin, TX', 27, 'Male'),
			(3, 'Carol', 'Minneapolis, MN', 45, 'Female'),
			(4, 'Eve', 'San Diego, CA', 34, 'Female');
		INSERT INTO movies VALUES
			(1, 'Spartacus', 'Stanley Kubrick', 'Action'),
			(2, 'Inception', 'Christopher Nolan', 'Suspense'),
			(3, 'The Matrix', 'Lana Wachowski', 'Sci-Fi');
		INSERT INTO ratings VALUES
			(1, 1, 1.5),
			(2, 2, 3.5), (2, 1, 4.5), (2, 3, 2),
			(3, 2, 1), (3, 1, 2),
			(4, 2, 1);
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return e
}

// recCache returns the §IV-D cache of the recommender called name.
func recCache(t *testing.T, e *Engine, name string) *reccache.Manager {
	t.Helper()
	r, ok := e.Recommenders().Get(name)
	if !ok {
		t.Fatalf("no recommender %q", name)
	}
	return r.Cache()
}

func createGeneralRec(t *testing.T, e *Engine) {
	t.Helper()
	// Recommender 1 from the paper.
	_, err := e.Exec(`Create Recommender GeneralRec On ratings
		Users From uid Items From iid Ratings From ratingval
		Using ItemCosCF`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestDDLAndDML(t *testing.T) {
	e := newMovieDB(t)
	res, err := e.Exec("SELECT * FROM ratings")
	if err != nil || res.RowsAffected != 7 {
		t.Fatalf("select count: %v %v", res, err)
	}
	// UPDATE.
	res, err = e.Exec("UPDATE ratings SET ratingval = 5.0 WHERE uid = 1 AND iid = 1")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
	q, err := e.Query("SELECT ratingval FROM ratings WHERE uid = 1")
	if err != nil || len(q.Rows) != 1 || q.Rows[0][0].Float() != 5 {
		t.Fatalf("after update: %v %v", q, err)
	}
	// DELETE.
	res, err = e.Exec("DELETE FROM ratings WHERE uid = 4")
	if err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete: %v %v", res, err)
	}
	res, _ = e.Exec("SELECT * FROM ratings")
	if res.RowsAffected != 6 {
		t.Fatalf("after delete: %d rows", res.RowsAffected)
	}
	// DROP TABLE / IF EXISTS.
	if _, err := e.Exec("DROP TABLE movies"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("DROP TABLE movies"); err == nil {
		t.Fatal("double drop should fail")
	}
	if _, err := e.Exec("DROP TABLE IF EXISTS movies"); err != nil {
		t.Fatal(err)
	}
	// CREATE TABLE IF NOT EXISTS.
	if _, err := e.Exec("CREATE TABLE IF NOT EXISTS ratings (a INT)"); err != nil {
		t.Fatal(err)
	}
}

func TestPlainSelects(t *testing.T) {
	e := newMovieDB(t)
	q, err := e.Query("SELECT name FROM users WHERE age > 25 ORDER BY age DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 3 || q.Rows[0][0].Text() != "Carol" {
		t.Fatalf("plain select: %v", q.Rows)
	}
	// Join without RECOMMEND.
	q, err = e.Query(`SELECT u.name, m.name FROM users u, movies m
		WHERE u.uid = m.mid`)
	if err != nil || len(q.Rows) != 3 {
		t.Fatalf("plain join: %v %v", q, err)
	}
	// Projection aliases and expressions.
	q, err = e.Query("SELECT age * 2 AS dbl FROM users WHERE uid = 1")
	if err != nil || q.Rows[0][0].Int() != 36 {
		t.Fatalf("expr projection: %v %v", q, err)
	}
	if q.Schema.Columns[0].Name != "dbl" {
		t.Fatalf("alias: %v", q.Schema.Columns)
	}
}

func TestCreateRecommenderAndQuery1(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)

	// Query 1 from the paper: top-10 movies for user 1 (only unseen items
	// are returned, so at most 2 here).
	q, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid = 1
		Order By R.ratingval Desc Limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("query 1: %v", q.Rows)
	}
	if q.Explain.Strategy != "FilterRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	for _, row := range q.Rows {
		if row[0].Int() != 1 {
			t.Fatalf("wrong user in %v", row)
		}
		if row[1].Int() == 1 {
			t.Fatalf("seen item leaked: %v", row)
		}
	}
	if q.Rows[0][2].Float() < q.Rows[1][2].Float() {
		t.Fatal("not sorted by predicted rating")
	}
}

func TestQuery2FullRecommend(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	q, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "Recommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	// 12 pairs total, 7 rated → 5 unseen pairs.
	if len(q.Rows) != 5 {
		t.Fatalf("query 2: %d rows", len(q.Rows))
	}
}

func TestQuery3SelectionPushdown(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	q, err := e.Query(`Select R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid = 1 And R.iid In (2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "FilterRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("query 3: %v", q.Rows)
	}
}

func TestQuery4JoinRecommend(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	// User 3 has not rated item 3; genre filter keeps only Sci-Fi.
	q, err := e.Query(`Select R.uid, M.name, R.ratingval From ratings as R, movies as M
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid = 3 And M.mid = R.iid And M.genre = 'Sci-Fi'`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "JoinRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	if len(q.Rows) != 1 || q.Rows[0][1].Text() != "The Matrix" {
		t.Fatalf("query 4: %v", q.Rows)
	}
	if q.Rows[0][0].Int() != 3 {
		t.Fatalf("user: %v", q.Rows[0])
	}
	if q.Rows[0][2].Float() == 0 {
		t.Fatal("prediction should be non-zero")
	}
}

func TestQuery5TopKWithJoin(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	_, err := e.Exec(`Create Recommender SVDRec On ratings
		Users From uid Items From iid Ratings From ratingval Using SVD`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`Select M.name, R.ratingval From ratings as R, movies M
		Recommend R.iid To R.uid On R.ratingval Using SVD
		Where R.uid = 1 And M.mid = R.iid
		Order By R.ratingval Desc Limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	// User 1 rated only item 1 → items 2 and 3 recommended.
	if len(q.Rows) != 2 {
		t.Fatalf("query 5: %v", q.Rows)
	}
	if q.Rows[0][1].Float() < q.Rows[1][1].Float() {
		t.Fatal("not sorted")
	}
}

func TestIndexRecommendStrategy(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	if err := recCache(t, e, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid = 1
		Order By R.ratingval Desc Limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "IndexRecommend" {
		t.Fatalf("strategy: %q", q.Explain.Strategy)
	}
	if !q.Explain.SortSkipped {
		t.Fatal("sort should be skipped for ratingval DESC")
	}
	if len(q.Rows) != 2 {
		t.Fatalf("index recommend: %v", q.Rows)
	}

	// Results agree with the online FilterRecommend path.
	e.Planner().Source = exec.SourceScan
	q2, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF
		Where R.uid = 1
		Order By R.ratingval Desc Limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Explain.Strategy != "FilterRecommend" {
		t.Fatalf("disabled index strategy: %q", q2.Explain.Strategy)
	}
	if len(q.Rows) != len(q2.Rows) {
		t.Fatalf("plans disagree: %v vs %v", q.Rows, q2.Rows)
	}
	// Scores must match pairwise (tie order between equal scores may
	// differ between the two plans), and the item sets must agree.
	items1, items2 := map[int64]float64{}, map[int64]float64{}
	for i := range q.Rows {
		if math.Abs(q.Rows[i][2].Float()-q2.Rows[i][2].Float()) > 1e-9 {
			t.Fatalf("plans disagree at %d: %v vs %v", i, q.Rows[i], q2.Rows[i])
		}
		items1[q.Rows[i][1].Int()] = q.Rows[i][2].Float()
		items2[q2.Rows[i][1].Int()] = q2.Rows[i][2].Float()
	}
	for item, score := range items1 {
		if s2, ok := items2[item]; !ok || math.Abs(score-s2) > 1e-9 {
			t.Fatalf("item sets disagree: %v vs %v", items1, items2)
		}
	}
}

func TestIndexRecommendNotUsedForUncoveredUser(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	if err := recCache(t, e, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval
		Where R.uid = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Explain.Strategy != "FilterRecommend" {
		t.Fatalf("uncovered user should fall back: %q", q.Explain.Strategy)
	}
}

func TestRecommendDefaultsToItemCosCF(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	// No USING clause → default algorithm.
	q, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval
		Where R.uid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 2 {
		t.Fatalf("default algorithm: %v", q.Rows)
	}
}

func TestRecommendWithoutRecommenderFails(t *testing.T) {
	e := newMovieDB(t)
	_, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Using ItemCosCF`)
	if err == nil || !strings.Contains(err.Error(), "CREATE RECOMMENDER") {
		t.Fatalf("expected helpful error, got %v", err)
	}
}

func TestDropRecommender(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	if _, err := e.Exec("DROP RECOMMENDER GeneralRec"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("DROP RECOMMENDER GeneralRec"); err == nil {
		t.Fatal("double drop should fail")
	}
	if _, err := e.Exec("DROP RECOMMENDER IF EXISTS GeneralRec"); err != nil {
		t.Fatal(err)
	}
	// Queries now fail.
	if _, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval`); err == nil {
		t.Fatal("query after drop should fail")
	}
}

func TestMaintenanceRebuildOnInserts(t *testing.T) {
	e := New(Config{Rec: rec.Options{RebuildThresholdPct: 20}})
	if _, err := e.ExecScript(`
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		INSERT INTO ratings VALUES (1,1,5),(1,2,3),(2,1,4),(2,2,2),(3,1,1);
	`); err != nil {
		t.Fatal(err)
	}
	createGeneralRec(t, e)
	r, _ := e.Recommenders().Get("GeneralRec")
	// 5 ratings × 20% = 1: next insert triggers a rebuild.
	if _, err := e.Exec("INSERT INTO ratings VALUES (3, 2, 4.5)"); err != nil {
		t.Fatal(err)
	}
	if r.Rebuilds() != 1 {
		t.Fatalf("rebuilds = %d, want 1", r.Rebuilds())
	}
	if _, found := r.Store().Seen(3, 2); !found {
		t.Fatal("rebuilt model missing the new rating")
	}
}

func TestRebuildInvalidatesCache(t *testing.T) {
	e := New(Config{Rec: rec.Options{RebuildThresholdPct: 10}})
	if _, err := e.ExecScript(`
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		INSERT INTO ratings VALUES (1,1,5),(1,2,3),(2,1,4),(2,3,2);
	`); err != nil {
		t.Fatal(err)
	}
	createGeneralRec(t, e)
	cache := recCache(t, e, "GeneralRec")
	if err := cache.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	if cache.Index().Len() == 0 {
		t.Fatal("index should be materialized")
	}
	if _, err := e.Exec("INSERT INTO ratings VALUES (1, 3, 1.0)"); err != nil {
		t.Fatal(err)
	}
	if cache.Index().Len() != 0 {
		t.Fatal("rebuild should invalidate the RecScoreIndex")
	}
}

func TestCacheMaintenanceEndToEnd(t *testing.T) {
	ts := 0.0
	e := New(Config{Rec: rec.Options{HotnessThreshold: 0.5, CacheClock: func() float64 { return ts }}})
	if _, err := e.ExecScript(`
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		INSERT INTO ratings VALUES (1,1,5),(1,2,3),(2,1,4),(2,3,2),(3,2,1);
	`); err != nil {
		t.Fatal(err)
	}
	createGeneralRec(t, e)

	ts = 1
	// User 1 queries a lot → high demand.
	for i := 0; i < 50; i++ {
		if _, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
			Recommend R.iid To R.uid On R.ratingval Where R.uid = 1`); err != nil {
			t.Fatal(err)
		}
	}
	// Item 3 gets updates → high consumption. (Small enough not to trigger
	// rebuild: threshold is 10% default... 5 ratings → 1. Use manual stat.)
	cache := recCache(t, e, "GeneralRec")
	for i := 0; i < 50; i++ {
		cache.RecordUpdate(3)
	}
	ts = 2
	dec := cache.Run()
	if dec.Admitted != 1 {
		t.Fatalf("hot user 1 should be admitted alone: %+v", dec)
	}
	if !cache.Index().Complete(1) {
		t.Fatal("user 1's tree should be materialized")
	}
	res, err := e.Query(`Select R.uid, R.iid, R.ratingval From ratings as R
		Recommend R.iid To R.uid On R.ratingval Where R.uid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != "IndexRecommend" || len(res.Rows) != 1 || res.Rows[0][1].Int() != 3 {
		t.Fatalf("user 1 via %s: %v, want (1, 3) from the RecTree", res.Explain.Strategy, res.Rows)
	}
}

func TestExecErrors(t *testing.T) {
	e := New(Config{})
	bad := []string{
		"SELECT * FROM missing",
		"INSERT INTO missing VALUES (1)",
		"CREATE TABLE t (a BLOB)",
		"CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)",
		"NONSENSE",
	}
	for _, q := range bad {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	if _, err := e.Query("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("Query of non-SELECT should fail")
	}
}

func TestInsertColumnListAndNulls(t *testing.T) {
	e := New(Config{})
	if _, err := e.ExecScript(`CREATE TABLE t (a INT, b TEXT, c FLOAT);`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("INSERT INTO t (c, a) VALUES (1.5, 7)"); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query("SELECT a, b, c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	row := q.Rows[0]
	if row[0].Int() != 7 || !row[1].IsNull() || row[2].Float() != 1.5 {
		t.Fatalf("column-list insert: %v", row)
	}
}

func TestGeometryInsertAndSpatialQuery(t *testing.T) {
	e := New(Config{})
	if _, err := e.ExecScript(`
		CREATE TABLE pois (vid INT PRIMARY KEY, name TEXT, geom GEOMETRY);
		INSERT INTO pois VALUES
			(1, 'near', 'POINT(1 1)'),
			(2, 'far', 'POINT(100 100)');
	`); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`SELECT name FROM pois WHERE ST_DWithin(geom, ST_Point(0, 0), 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || q.Rows[0][0].Text() != "near" {
		t.Fatalf("spatial query: %v", q.Rows)
	}
}

func TestMaintenanceCountsUpdatesAndDeletes(t *testing.T) {
	e := New(Config{Rec: rec.Options{RebuildThresholdPct: 30}})
	if _, err := e.ExecScript(`
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		INSERT INTO ratings VALUES (1,1,5),(1,2,3),(2,1,4),(2,2,2),(3,1,1),(3,2,2);
	`); err != nil {
		t.Fatal(err)
	}
	createGeneralRec(t, e)
	r, _ := e.Recommenders().Get("GeneralRec")
	// Threshold: 30% of 6 = 1 (int truncation)... 1.8 → 1. One UPDATE
	// suffices to trigger a rebuild.
	if _, err := e.Exec("UPDATE ratings SET ratingval = 5 WHERE uid = 3 AND iid = 1"); err != nil {
		t.Fatal(err)
	}
	if r.Rebuilds() != 1 {
		t.Fatalf("rebuilds after update = %d", r.Rebuilds())
	}
	if v, found := r.Store().Seen(3, 1); !found || v != 5 {
		t.Fatalf("rebuilt model missing updated rating: %v %v", v, found)
	}
	if _, err := e.Exec("DELETE FROM ratings WHERE uid = 3"); err != nil {
		t.Fatal(err)
	}
	if r.Rebuilds() != 2 {
		t.Fatalf("rebuilds after delete = %d", r.Rebuilds())
	}
	if _, found := r.Store().Seen(3, 1); found {
		t.Fatal("deleted rating still in rebuilt model")
	}
}

func TestCreateRecommenderOnEmptyTable(t *testing.T) {
	e := New(Config{})
	if _, err := e.Exec("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"); err != nil {
		t.Fatal(err)
	}
	createGeneralRec(t, e)
	q, err := e.Query(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 0 {
		t.Fatalf("empty model should recommend nothing: %v", q.Rows)
	}
}

func TestOrderByMixedDirections(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	q, err := e.Query(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval
		ORDER BY R.uid ASC, R.ratingval DESC`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(q.Rows); i++ {
		a, b := q.Rows[i-1], q.Rows[i]
		if a[0].Int() > b[0].Int() {
			t.Fatalf("uid order broken at %d", i)
		}
		if a[0].Int() == b[0].Int() && a[2].Float() < b[2].Float() {
			t.Fatalf("rating order broken at %d", i)
		}
	}
}

func TestCreateIndexStatement(t *testing.T) {
	e := newMovieDB(t)
	if _, err := e.Exec("CREATE INDEX ratings_uid ON ratings (uid)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("CREATE INDEX dup ON ratings (uid)"); err == nil {
		t.Fatal("duplicate index should fail")
	}
	if _, err := e.Exec("CREATE INDEX x ON nosuch (uid)"); err == nil {
		t.Fatal("index on missing table should fail")
	}
	tab, _ := e.Catalog().Get("ratings")
	if _, ok := tab.IndexOn("uid"); !ok {
		t.Fatal("index not registered")
	}
}

func TestDuplicateRecommenderViaSQL(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	if _, err := e.Exec(`CREATE RECOMMENDER GeneralRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`); err == nil {
		t.Fatal("duplicate recommender should fail")
	}
	// A second recommender with the same algorithm on the same table is
	// allowed (ForQuery picks one), but under a different name.
	if _, err := e.Exec(`CREATE RECOMMENDER SecondRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemPearCF`); err != nil {
		t.Fatal(err)
	}
	if len(e.Recommenders().List()) != 2 {
		t.Fatal("expected two recommenders")
	}
}

func TestInsertArityError(t *testing.T) {
	e := newMovieDB(t)
	if _, err := e.Exec("INSERT INTO ratings (uid, iid) VALUES (1, 2, 3)"); err == nil {
		t.Fatal("value/column arity mismatch should fail")
	}
	if _, err := e.Exec("INSERT INTO ratings (uid, nosuch) VALUES (1, 2)"); err == nil {
		t.Fatal("unknown column should fail")
	}
}

// attachLog checkpoints e into "db" on fs with a no-op save, which
// attaches a fresh write-ahead log there.
func attachLog(t *testing.T, e *Engine, fs fault.FS) {
	t.Helper()
	if err := e.Checkpoint(fs, "db", func(uint64) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// loggedRecords reads back every record the engine's log holds.
func loggedRecords(t *testing.T, fs fault.FS) []wal.Record {
	t.Helper()
	var recs []wal.Record
	if _, err := wal.Replay(fs, "db/wal", 0, func(_ uint64, p []byte) error {
		r, err := wal.DecodeRecord(p)
		recs = append(recs, r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestCommitLogSeesMutations(t *testing.T) {
	e := New(Config{})
	fs := fault.NewMemFS()
	attachLog(t, e, fs)
	if _, err := e.ExecScript(`
		CREATE TABLE t (a INT PRIMARY KEY);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("INSERT INTO t VALUES (2), (3)"); err != nil {
		t.Fatal(err)
	}
	// A failed statement must not reach the log.
	if _, err := e.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("duplicate pk should fail")
	}
	recs := loggedRecords(t, fs)
	kinds := make([]byte, len(recs))
	for i, r := range recs {
		kinds[i] = r.Kind
	}
	// DDL, then a bare single-row insert, then the two-row insert framed
	// as one atomic group; nothing from the failed statement.
	if string(kinds) != "SIBIIC" {
		t.Fatalf("logged kinds %q, want %q: %+v", kinds, "SIBIIC", recs)
	}
	if recs[0].Text != "CREATE TABLE t (a INT PRIMARY KEY)" || recs[0].Txn != 0 {
		t.Fatalf("DDL record = %+v", recs[0])
	}
	if recs[1].Txn != 0 || recs[1].Table != "t" || len(recs[1].Row) == 0 {
		t.Fatalf("single-row record = %+v", recs[1])
	}
	if txn := recs[2].Txn; txn == 0 || recs[3].Txn != txn || recs[4].Txn != txn || recs[5].Txn != txn {
		t.Fatalf("multi-row group not framed under one txn id: %+v", recs[2:])
	}
}

func TestCommitLogErrorSurfaces(t *testing.T) {
	e := New(Config{})
	if _, err := e.Exec("CREATE TABLE t (a INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	fs := fault.NewInject(fault.NewMemFS())
	attachLog(t, e, fs)
	fs.SetPlan(fault.ModeFail, 1) // the append's write
	if _, err := e.Exec("INSERT INTO t VALUES (1)"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("log error not surfaced: %v", err)
	}
}
