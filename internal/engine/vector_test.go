package engine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"recdb/internal/exec"
	"recdb/internal/plan"
	"recdb/internal/rec"
)

// newVectorDB builds an engine with a synthetic ratings table big enough
// to push the IVF path out of exact-fallback (items ≫ the exact
// threshold) and an SVD recommender trained deterministically under seed.
func newVectorDB(t *testing.T, seed int64) *Engine {
	t.Helper()
	const users, items, perUser = 40, 300, 40
	e := New(Config{Rec: rec.Options{Build: rec.BuildOptions{SVDSeed: seed}}})
	if _, err := e.Exec("CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)"); err != nil {
		t.Fatal(err)
	}
	rng := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		rng = rng*2862933555777941757 + 3037000493
		return int((rng >> 33) % uint64(n))
	}
	// Genre-structured ratings: users and items each belong to one of six
	// genres, and ratings are high on a match. Pure-noise ratings would
	// yield unclustered latent factors, which makes IVF recall a coin
	// flip; structure is what the index exists to exploit.
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
			v += next(2)
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", u, i, v))
		}
	}
	if _, err := e.Exec("INSERT INTO ratings VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`CREATE RECOMMENDER VecRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`); err != nil {
		t.Fatal(err)
	}
	return e
}

const vecTopK = `SELECT R.uid, R.iid, R.ratingval FROM ratings R
	RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
	WHERE R.uid = %d ORDER BY R.ratingval DESC LIMIT 10`

// fullProbe is a VectorProbe width no index has centroids for: a full
// probe.
const fullProbe = 1 << 30

// queryExact runs q on the exact baseline plan: the first of the outer,
// list and scan sources the statement is eligible for — what the policy
// picks when neither the RecScoreIndex nor the IVF index applies.
func queryExact(t *testing.T, e *Engine, q string) *QueryResult {
	t.Helper()
	defer func() { e.Planner().Source = exec.SourceAuto }()
	for _, src := range []exec.Source{exec.SourceOuter, exec.SourceList, exec.SourceScan} {
		e.Planner().Source = src
		res, err := e.Query(q)
		if errors.Is(err, plan.ErrSourceIneligible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t.Fatalf("no exact source serves %s", q)
	return nil
}

// queryVectorExact runs q through VECTORRECOMMEND at full probe width.
func queryVectorExact(t *testing.T, e *Engine, q string) *QueryResult {
	t.Helper()
	e.Planner().VectorProbe = fullProbe
	defer func() { e.Planner().VectorProbe = 0 }()
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVectorRecommendFullProbeEquivalence is the end-to-end backbone
// invariant: for every seeded model, the full-probe (nprobe = all
// centroids) vector plan returns byte-identical rows to the exact
// FilterRecommend plan, across single-user, multi-user, offset, and
// rating-predicate shapes.
func TestVectorRecommendFullProbeEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newVectorDB(t, seed)
			queries := []string{
				fmt.Sprintf(vecTopK, 1),
				fmt.Sprintf(vecTopK, 7),
				`SELECT R.uid, R.iid, R.ratingval FROM ratings R
					RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
					WHERE R.uid IN (3, 1, 9) ORDER BY R.ratingval DESC LIMIT 25`,
				`SELECT R.uid, R.iid, R.ratingval FROM ratings R
					RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
					WHERE R.uid = 2 AND R.ratingval > 1.5
					ORDER BY R.ratingval DESC LIMIT 10`,
				`SELECT R.uid, R.iid, R.ratingval FROM ratings R
					RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
					WHERE R.uid = 4 ORDER BY R.ratingval DESC LIMIT 10 OFFSET 5`,
			}
			for _, q := range queries {
				vec := queryVectorExact(t, e, q)
				if vec.Explain.Strategy != "VectorRecommend" {
					t.Fatalf("strategy %q for %s", vec.Explain.Strategy, q)
				}
				exact := queryExact(t, e, q)
				if exact.Explain.Strategy != "FilterRecommend" {
					t.Fatalf("baseline strategy %q", exact.Explain.Strategy)
				}
				if len(vec.Rows) == 0 {
					t.Fatalf("empty result makes the test vacuous: %s", q)
				}
				if !reflect.DeepEqual(vec.Rows, exact.Rows) {
					t.Fatalf("full-probe vector plan diverges from exact plan for %s:\nvector: %v\nexact:  %v",
						q, vec.Rows, exact.Rows)
				}
			}
		})
	}
}

// TestVectorRecommendDefaultProbeRecall measures end-to-end recall@10 at
// the default probe width across 3 seeds: ≥ 0.9 averaged over users.
func TestVectorRecommendDefaultProbeRecall(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newVectorDB(t, seed)
			hits, want := 0, 0
			for u := 1; u <= 20; u++ {
				q := fmt.Sprintf(vecTopK, u)
				approx, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if approx.Explain.Strategy != "VectorRecommend" {
					t.Fatalf("strategy %q", approx.Explain.Strategy)
				}
				exact := queryExact(t, e, q)
				in := make(map[int64]bool, len(approx.Rows))
				for _, r := range approx.Rows {
					in[r[1].Int()] = true
				}
				for _, r := range exact.Rows {
					want++
					if in[r[1].Int()] {
						hits++
					}
				}
			}
			recall := float64(hits) / float64(want)
			t.Logf("recall@10 = %.3f", recall)
			if recall < 0.9 {
				t.Fatalf("recall@10 = %.3f < 0.9 at default nprobe", recall)
			}
		})
	}
}

// TestVectorRecommendSelectiveFilter: a selective IN-list shrinks the
// candidate universe below the exact threshold, so the recall mode is
// exact-fallback and the rows must equal the exact plan's exactly.
func TestVectorRecommendSelectiveFilter(t *testing.T) {
	e := newVectorDB(t, 1)
	q := `SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
		WHERE R.uid = 1 AND R.iid IN (5, 20, 35, 50, 65, 80, 95)
		ORDER BY R.ratingval DESC LIMIT 5`
	vec, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if vec.Explain.Strategy != "VectorRecommend" {
		t.Fatalf("strategy %q", vec.Explain.Strategy)
	}
	exact := queryExact(t, e, q)
	if len(vec.Rows) == 0 || !reflect.DeepEqual(vec.Rows, exact.Rows) {
		t.Fatalf("selective filter diverges:\nvector: %v\nexact:  %v", vec.Rows, exact.Rows)
	}
	// The recall mode is visible in EXPLAIN ANALYZE.
	an, err := e.Query("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatal(err)
	}
	text := planText(an.Rows)
	if !strings.Contains(text, "mode exact-fallback") {
		t.Fatalf("selective plan not in exact-fallback mode:\n%s", text)
	}
	if e.Metrics().Counter("ann.exact_fallbacks").Value() == 0 {
		t.Fatalf("ann.exact_fallbacks not incremented")
	}
}

// TestVectorRecommendNonSelectiveFilter: a rating predicate that eats most
// candidates forces over-fetch + recheck (probe widening); no returned row
// may violate the predicate, and the full-probe mode stays byte-identical
// to the exact plan.
func TestVectorRecommendNonSelectiveFilter(t *testing.T) {
	e := newVectorDB(t, 2)
	// Probe one centroid at a time so the widening loop has to work.
	e.Planner().VectorProbe = 1
	q := `SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
		WHERE R.uid = 3 AND R.ratingval > 2.0
		ORDER BY R.ratingval DESC LIMIT 10`
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != "VectorRecommend" {
		t.Fatalf("strategy %q", res.Explain.Strategy)
	}
	for _, r := range res.Rows {
		if r[2].Float() <= 2.0 {
			t.Fatalf("returned row violates pushed-down predicate: %v", r)
		}
	}
	e.Planner().VectorProbe = 0
	vec := queryVectorExact(t, e, q)
	exact := queryExact(t, e, q)
	if !reflect.DeepEqual(vec.Rows, exact.Rows) {
		t.Fatalf("full-probe with rating predicate diverges from exact plan")
	}
}

// TestVectorRecommendNeverLeaksFilteredItems: in every mode — default
// probe, widened probe, full probe — an item outside the pushed-down
// IN-list must never be returned.
func TestVectorRecommendNeverLeaksFilteredItems(t *testing.T) {
	e := newVectorDB(t, 3)
	// 100 allowed items: above the exact threshold, so this runs in probe
	// mode with a posting-list pre-filter.
	var ids []string
	allowed := map[int64]bool{}
	for i := 1; i <= 100; i++ {
		ids = append(ids, fmt.Sprintf("%d", i*3))
		allowed[int64(i*3)] = true
	}
	q := fmt.Sprintf(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
		WHERE R.uid = 5 AND R.iid IN (%s)
		ORDER BY R.ratingval DESC LIMIT 10`, strings.Join(ids, ", "))
	for _, mode := range []string{"default", "narrow", "exact"} {
		switch mode {
		case "default":
			e.Planner().VectorProbe = 0
		case "narrow":
			e.Planner().VectorProbe = 1
		case "exact":
			e.Planner().VectorProbe = fullProbe
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.Strategy != "VectorRecommend" {
			t.Fatalf("%s: strategy %q", mode, res.Explain.Strategy)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: empty result makes the test vacuous", mode)
		}
		for _, r := range res.Rows {
			if !allowed[r[1].Int()] {
				t.Fatalf("%s mode leaked filtered-out item %d", mode, r[1].Int())
			}
		}
	}
	e.Planner().VectorProbe = 0
}

// TestVectorRecommendSpatialPath: the spatial/polygon filtered search —
// RECOMMEND joined to a geometry table under an R-tree predicate —
// composes with the probe (the outer side becomes the candidate filter)
// and matches the exact join plan when the mode is exact.
func TestVectorRecommendSpatialPath(t *testing.T) {
	e := newVectorDB(t, 1)
	if _, err := e.Exec("CREATE TABLE pois (vid INT PRIMARY KEY, name TEXT, geom GEOMETRY)"); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 1; i <= 300; i++ {
		x := float64((i * 37) % 100)
		y := float64((i * 53) % 100)
		rows = append(rows, fmt.Sprintf("(%d, 'poi %d', 'POINT(%g %g)')", i, i, x, y))
	}
	if _, err := e.Exec("INSERT INTO pois VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec("CREATE INDEX pois_geom ON pois (geom)"); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, polygon string
	}{
		// A tight polygon: few POIs survive → exact-fallback mode.
		{"selective", "POLYGON((0 0,25 0,25 25,0 25))"},
		// A wide polygon: most POIs survive → probe mode.
		{"wide", "POLYGON((0 0,95 0,95 95,0 95))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := fmt.Sprintf(`SELECT P.name, R.ratingval FROM ratings R, pois P
				RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
				WHERE R.uid = 1 AND P.vid = R.iid
				AND ST_Contains(ST_GeomFromText('%s'), P.geom)
				ORDER BY R.ratingval DESC LIMIT 10`, tc.polygon)
			vec := queryVectorExact(t, e, q)
			if vec.Explain.Strategy != "VectorRecommend" {
				t.Fatalf("strategy %q", vec.Explain.Strategy)
			}
			exact := queryExact(t, e, q)
			if exact.Explain.Strategy != "JoinRecommend" {
				t.Fatalf("baseline strategy %q", exact.Explain.Strategy)
			}
			if len(vec.Rows) == 0 {
				t.Fatalf("empty result makes the test vacuous")
			}
			if !reflect.DeepEqual(vec.Rows, exact.Rows) {
				t.Fatalf("spatial vector plan diverges from exact join plan:\nvector: %v\nexact:  %v",
					vec.Rows, exact.Rows)
			}
			// Approximate mode must never emit a POI outside the polygon:
			// every returned name must appear in the exact (unlimited)
			// polygon membership.
			inPoly := map[string]bool{}
			all, err := e.Query(fmt.Sprintf(
				`SELECT name FROM pois WHERE ST_Contains(ST_GeomFromText('%s'), geom)`, tc.polygon))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range all.Rows {
				inPoly[r[0].Text()] = true
			}
			approx, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range approx.Rows {
				if !inPoly[r[0].Text()] {
					t.Fatalf("approximate spatial probe leaked %q from outside the polygon", r[0].Text())
				}
			}
		})
	}
}

// TestVectorRecommendStrategyGates: shapes the vector path must decline.
func TestVectorRecommendStrategyGates(t *testing.T) {
	e := newVectorDB(t, 1)
	cases := []struct {
		q, want string
	}{
		// No LIMIT: the operator cannot bound its per-user row target.
		{`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
			WHERE R.uid = 1 ORDER BY R.ratingval DESC`, "FilterRecommend"},
		// No user predicate.
		{`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
			ORDER BY R.ratingval DESC LIMIT 10`, "Recommend"},
		// Ascending order: the probe serves descending top-k only.
		{`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
			WHERE R.uid = 1 ORDER BY R.ratingval LIMIT 10`, "FilterRecommend"},
		// Aggregation consumes all rows; a bounded probe would undercount.
		{`SELECT R.uid, COUNT(*) FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
			WHERE R.uid = 1 GROUP BY R.uid LIMIT 10`, "FilterRecommend"},
	}
	for _, tc := range cases {
		res, err := e.Query(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Explain.Strategy != tc.want {
			t.Fatalf("strategy %q, want %q for %s", res.Explain.Strategy, tc.want, tc.q)
		}
	}
	if e.Metrics().Counter("plan.vector_recommend").Value() != 0 {
		t.Fatalf("gated queries still counted as vector plans")
	}
	if _, err := e.Query(fmt.Sprintf(vecTopK, 1)); err != nil {
		t.Fatal(err)
	}
	if e.Metrics().Counter("plan.vector_recommend").Value() != 1 {
		t.Fatalf("vector plan not counted")
	}
	if e.Metrics().Counter("ann.probed_centroids").Value() == 0 {
		t.Fatalf("ann.probed_centroids not recorded")
	}
}

// TestVectorRecommendModelSwapUnderLiveQueries hammers the vector path
// while the model is rebuilt and swapped underneath it: queries must keep
// succeeding (the old store and its index stay readable until released),
// and the reccache generation machinery must invalidate cleanly.
func TestVectorRecommendModelSwapUnderLiveQueries(t *testing.T) {
	hammerModelSwap(t, newVectorDB(t, 1), "VecRec", vecTopK, "VectorRecommend")
}

// TestFilterRecommendModelSwapUnderLiveQueries is the same hammer over
// the neighbourhood path: single-user ItemCosCF top-10s read the model's
// similarity lists while Manager.Rebuild swaps in fresh models.
func TestFilterRecommendModelSwapUnderLiveQueries(t *testing.T) {
	e := newVectorDB(t, 1)
	if _, err := e.Exec(`CREATE RECOMMENDER ItemRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`); err != nil {
		t.Fatal(err)
	}
	hammerModelSwap(t, e, "ItemRec", strings.Replace(vecTopK, "USING SVD", "USING ItemCosCF", 1), "FilterRecommend")
}

// hammerModelSwap runs top-10 queries from four goroutines across five
// insert-and-rebuild cycles of the named recommender.
func hammerModelSwap(t *testing.T, e *Engine, recommender, queryFmt, strategy string) {
	t.Helper()
	const workers, queriesEach, rebuilds = 4, 40, 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*queriesEach)
	stop := make(chan struct{})
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Query(fmt.Sprintf(queryFmt, 1+(w*queriesEach+i)%40))
				if err != nil {
					errs <- err
					return
				}
				if res.Explain.Strategy != strategy || len(res.Rows) != 10 {
					errs <- fmt.Errorf("strategy %q, %d rows under swap", res.Explain.Strategy, len(res.Rows))
					return
				}
			}
		}(w)
	}
	for g := 0; g < rebuilds; g++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO ratings VALUES (%d, %d, 3)", 1+g, 200+g)); err != nil {
			t.Fatal(err)
		}
		if err := e.Recommenders().Rebuild(recommender); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestVectorRecommendCacheGenerationAcrossSwap: materializing a user's
// RecScoreIndex outranks the vector path (strategy 1 beats strategy 2),
// a model rebuild invalidates that cache generation, and the query then
// lands back on the vector plan serving the NEW model — never stale
// cached scores, never a stale index.
func TestVectorRecommendCacheGenerationAcrossSwap(t *testing.T) {
	e := newVectorDB(t, 1)
	q := fmt.Sprintf(vecTopK, 1)

	if err := recCache(t, e, "VecRec").MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != "IndexRecommend" {
		t.Fatalf("materialized user not served from RecScoreIndex: %q", res.Explain.Strategy)
	}

	// Shift the model: user 1 gains strong new ratings, then rebuild.
	if _, err := e.Exec("INSERT INTO ratings VALUES (1, 299, 5), (1, 298, 5), (1, 297, 5)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Recommenders().Rebuild("VecRec"); err != nil {
		t.Fatal(err)
	}

	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.Strategy != "VectorRecommend" {
		t.Fatalf("after rebuild, stale cache generation still serving: %q", res.Explain.Strategy)
	}
	// The swapped-in index serves the new model: full probe must equal the
	// new model's exact scan.
	vec := queryVectorExact(t, e, q)
	exact := queryExact(t, e, q)
	if !reflect.DeepEqual(vec.Rows, exact.Rows) {
		t.Fatalf("post-swap vector plan diverges from post-swap exact plan")
	}
}
