package engine

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden-file coverage for EXPLAIN and EXPLAIN ANALYZE output: the plan
// shapes the paper's query classes produce (heap scan + filter, join,
// RECOMMEND with and without the RecScoreIndex, spatial predicates) are
// pinned verbatim, with only wall-clock times normalized away. Regenerate
// with:
//
//	go test ./internal/engine -run TestExplainGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite EXPLAIN golden files")

var (
	planTimeRE = regexp.MustCompile(`(time|self)=[^ )]+`)
	execTimeRE = regexp.MustCompile(`Execution time: .+`)
)

// normalizePlan strips the only nondeterministic parts of EXPLAIN ANALYZE
// output — wall-clock durations. Rows, loops, and buffer hit/miss counts
// are deterministic for a fixed dataset and stay pinned.
func normalizePlan(s string) string {
	s = planTimeRE.ReplaceAllString(s, "$1=<dur>")
	s = execTimeRE.ReplaceAllString(s, "Execution time: <dur>")
	return s
}

func explainText(t *testing.T, e *Engine, q string) string {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].Text())
		sb.WriteByte('\n')
	}
	return normalizePlan(sb.String())
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("plan drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

func TestExplainGolden(t *testing.T) {
	movie := newMovieDB(t)
	createGeneralRec(t, movie)
	warm := newMovieDB(t)
	createGeneralRec(t, warm)
	if err := recCache(t, warm, "GeneralRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	warmAll := newMovieDB(t)
	createGeneralRec(t, warmAll)
	for _, u := range []int64{4, 3, 1} {
		if err := recCache(t, warmAll, "GeneralRec").MaterializeUser(u); err != nil {
			t.Fatal(err)
		}
	}
	poi := newPOIDB(t, true)
	vec := newVectorDB(t, 1)

	cases := []struct {
		name string
		eng  *Engine
		q    string
	}{
		{"scan_filter", movie,
			`SELECT name FROM movies WHERE genre = 'Action'`},
		{"join", movie,
			`SELECT u.name, m.name FROM ratings r, users u, movies m
			 WHERE r.uid = u.uid AND r.iid = m.mid AND r.ratingval > 2`},
		{"recommend_scan", movie,
			`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			 WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 2`},
		{"recommend_index", warm,
			`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			 WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 2`},
		// Several users: each RecTree is read in score order, but the
		// statement's order is global, so the Sort must stay.
		{"recommend_index_multi", warmAll,
			`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			 WHERE R.uid IN (4, 3, 1) ORDER BY R.ratingval DESC`},
		{"recommend_join", movie,
			`SELECT R.uid, M.name, R.ratingval FROM ratings R, movies M
			 RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			 WHERE R.uid = 4 AND M.mid = R.iid AND M.genre <> 'Suspense' AND R.ratingval >= 0
			 ORDER BY R.ratingval DESC LIMIT 2`},
		{"spatial", poi,
			`SELECT name FROM pois WHERE ST_DWithin(geom, ST_Point(50, 50), 10)`},
		{"recommend_vector", vec,
			`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			 RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
			 WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, "explain_"+c.name, explainText(t, c.eng, "EXPLAIN "+c.q))
			checkGolden(t, "analyze_"+c.name, explainText(t, c.eng, "EXPLAIN ANALYZE "+c.q))
		})
	}
}
