package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recdb"
	"recdb/internal/rec"
)

// capture redirects stdout while fn runs and returns what it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 1<<20)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out
}

func testDB(t *testing.T) *recdb.DB {
	t.Helper()
	db := recdb.Open()
	t.Cleanup(db.Close)
	if _, err := db.ExecScript(`
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		INSERT INTO ratings VALUES (1,1,5),(1,2,3),(2,1,4),(2,3,2),(3,2,1);
		CREATE RECOMMENDER CliRec ON ratings
			USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF;
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestSpecFor(t *testing.T) {
	for _, name := range []string{"movielens", "LDOS", "yelp", "ldos-comoda"} {
		if _, err := specFor(name); err != nil {
			t.Errorf("specFor(%q): %v", name, err)
		}
	}
	if _, err := specFor("netflix"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestIsQuery(t *testing.T) {
	cases := map[string]bool{
		"SELECT * FROM t":          true,
		"select * from t;":         true,
		"EXPLAIN SELECT a FROM t":  true,
		"explain select a from t":  true,
		"INSERT INTO t VALUES (1)": false,
		"CREATE TABLE t (a INT)":   false,
		"SELECT 1; SELECT 2;":      false,
	}
	for q, want := range cases {
		if isQuery(q) != want {
			t.Errorf("isQuery(%q) = %v, want %v", q, !want, want)
		}
	}
}

func TestRunStatementSelectPrintsRows(t *testing.T) {
	db := testDB(t)
	out := capture(t, func() {
		if err := runStatement(db, db.NewSession(), "SELECT uid, iid FROM ratings WHERE uid = 1 ORDER BY iid;"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "(2 rows)") || !strings.Contains(out, "uid") {
		t.Fatalf("select output:\n%s", out)
	}
}

func TestRunStatementRecommendShowsPlan(t *testing.T) {
	db := testDB(t)
	out := capture(t, func() {
		if err := runStatement(db, db.NewSession(), `SELECT R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			WHERE R.uid = 3`); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "[plan: FilterRecommend]") {
		t.Fatalf("plan tag missing:\n%s", out)
	}
}

func TestRunStatementExplain(t *testing.T) {
	db := testDB(t)
	out := capture(t, func() {
		if err := runStatement(db, db.NewSession(), `EXPLAIN SELECT uid FROM ratings WHERE uid = 1`); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "SeqScan on ratings") {
		t.Fatalf("explain output:\n%s", out)
	}
}

func TestRunStatementScript(t *testing.T) {
	db := testDB(t)
	out := capture(t, func() {
		if err := runStatement(db, db.NewSession(), "CREATE TABLE x (a INT); INSERT INTO x VALUES (1), (2);"); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "OK (2 rows affected)") {
		t.Fatalf("script output:\n%s", out)
	}
	if err := runStatement(db, db.NewSession(), "BROKEN;"); err == nil {
		t.Fatal("broken statement should error")
	}
	if err := runStatement(db, db.NewSession(), "   "); err != nil {
		t.Fatal("blank input should be a no-op")
	}
}

func TestMetaCommands(t *testing.T) {
	db := testDB(t)
	if meta(db, "\\q") != true {
		t.Fatal("\\q should quit")
	}
	out := capture(t, func() {
		if meta(db, "\\d") {
			t.Error("\\d should not quit")
		}
	})
	if !strings.Contains(out, "ratings") {
		t.Fatalf("\\d output:\n%s", out)
	}
	out = capture(t, func() { meta(db, "\\rec") })
	if !strings.Contains(out, "CliRec ON ratings USING ItemCosCF") {
		t.Fatalf("\\rec output:\n%s", out)
	}
	out = capture(t, func() { meta(db, "\\materialize CliRec") })
	if !strings.Contains(out, "materialized") {
		t.Fatalf("\\materialize output:\n%s", out)
	}
	out = capture(t, func() { meta(db, "\\maintain CliRec") })
	if !strings.Contains(out, "admitted") {
		t.Fatalf("\\maintain output:\n%s", out)
	}
	out = capture(t, func() { meta(db, "\\stats") })
	if !strings.Contains(out, "page reads:") {
		t.Fatalf("\\stats output:\n%s", out)
	}
	out = capture(t, func() { meta(db, "\\metrics") })
	for _, want := range []string{"exec.queries", "bufferpool.page_reads", "rec.builds"} {
		if !strings.Contains(out, want) {
			t.Fatalf("\\metrics output missing %q:\n%s", want, out)
		}
	}
	out = capture(t, func() {
		if err := runStatement(db, db.NewSession(), `EXPLAIN ANALYZE SELECT uid FROM ratings WHERE uid = 1`); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "actual rows=") || !strings.Contains(out, "Execution time:") {
		t.Fatalf("explain analyze output:\n%s", out)
	}
}

func TestMetaSaveRoundTrip(t *testing.T) {
	db := testDB(t)
	dir := filepath.Join(t.TempDir(), "snap")
	out := capture(t, func() { meta(db, "\\save "+dir) })
	if !strings.Contains(out, "saved to") {
		t.Fatalf("\\save output:\n%s", out)
	}
	// Commits after \save go through the directory's write-ahead log...
	if _, err := db.Exec("INSERT INTO ratings VALUES (9, 9, 4)"); err != nil {
		t.Fatal(err)
	}
	// ...and a reopen replays them on top of the snapshot.
	loaded, err := recdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	res, err := loaded.Engine().Query("SELECT COUNT(*) FROM ratings")
	if err != nil || res.Rows[0][0].Int() != 6 {
		t.Fatalf("reopened database: %v %v", res, err)
	}
}

// TestPreloadCheckpointsDurableImport opens a database durably, imports a
// dataset through preload, and verifies the import survives a reopen:
// the importers bypass the write-ahead log, so preload must checkpoint
// them on a durably opened database.
func TestPreloadCheckpointsDurableImport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	seed := recdb.Open()
	seed.MustExec("CREATE TABLE marker (id INT PRIMARY KEY)")
	if err := seed.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	db, err := recdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() {
		if err := preload(db, "movielens", 0.02, ""); err != nil {
			t.Error(err)
		}
	})
	if !strings.Contains(out, "checkpointed import into "+dir) {
		t.Fatalf("durable import not checkpointed:\n%s", out)
	}
	db.Close()

	// The imported rows are on disk, not just in memory.
	reopened, err := recdb.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	res, err := reopened.Engine().Query("SELECT COUNT(*) FROM ratings")
	if err != nil || res.Rows[0][0].Int() == 0 {
		t.Fatalf("imported ratings lost across reopen: %v %v", res, err)
	}

	// An in-memory database imports without checkpointing anywhere.
	mem := recdb.Open()
	defer mem.Close()
	out = capture(t, func() {
		if err := preload(mem, "movielens", 0.02, ""); err != nil {
			t.Error(err)
		}
	})
	if strings.Contains(out, "checkpointed") {
		t.Fatalf("in-memory import should not checkpoint:\n%s", out)
	}
}

// TestMetaEvaluate: \evaluate reports the held-out accuracy of the model
// the recommender serves: its algorithm built on the train split with the
// engine's build options, scored on the held-out ratings.
func TestMetaEvaluate(t *testing.T) {
	const factors, epochs, rate, lambda = 6, 15, 0.02, 0.04
	db := recdb.Open(recdb.WithSVD(factors, epochs, rate, lambda))
	defer db.Close()
	if _, err := db.ExecScript(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);`); err != nil {
		t.Fatal(err)
	}
	var rows []string
	var ratings []rec.Rating
	for u := 1; u <= 25; u++ {
		for i := 1; i <= 32; i++ {
			if (u+2*i)%3 == 0 {
				continue
			}
			v := 1 + (u*i)%5
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", u, i, v))
			ratings = append(ratings, rec.Rating{User: int64(u), Item: int64(i), Value: float64(v)})
		}
	}
	if _, err := db.Exec("INSERT INTO ratings VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE RECOMMENDER EvalRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() { meta(db, "\\evaluate EvalRec 5") })

	train, test := rec.SplitRatings(ratings, 5)
	model, err := rec.Build(train, rec.SVD, rec.BuildOptions{SVDFactors: factors, SVDEpochs: epochs, SVDRate: rate, SVDLambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	ev := rec.Evaluate(model, test)
	if ev.Scorable == 0 {
		t.Fatalf("fixture: none of %d held-out ratings is scorable", len(test))
	}
	want := fmt.Sprintf("EvalRec (SVD): RMSE %.4f  MAE %.4f  (%d scorable, %d unscorable of %d held out)\n",
		ev.RMSE, ev.MAE, ev.Scorable, ev.Unscorable, len(test))
	if out != want {
		t.Fatalf("\\evaluate printed\n%s\nwant\n%s", out, want)
	}
	if err := evaluate(db.Engine(), "missing", 5); err == nil {
		t.Fatal("missing recommender should fail")
	}
	if err := evaluate(db.Engine(), "EvalRec", len(ratings)+1); err == nil {
		t.Fatal("holding out 1 in more ratings than the table has should fail")
	}
}
