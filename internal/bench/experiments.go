package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"recdb/internal/dataset"
	"recdb/internal/exec"
	"recdb/internal/metrics"
	"recdb/internal/reccache"
)

// Table is one regenerated paper table/figure, ready for text rendering.
type Table struct {
	ID     string // e.g. "Table II", "Fig. 6"
	Title  string
	Header []string
	Rows   [][]string
	// Metrics, when non-nil, embeds the engine's instrument snapshot taken
	// after the experiment ran (recdb-bench -json output carries it so a
	// run's buffer-pool/planner/executor counters are archived with its
	// timings).
	Metrics *metrics.Snapshot `json:",omitempty"`
}

func dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// Selectivities are the §VI-A selectivity factors.
var Selectivities = []float64{0.001, 0.01, 0.1}

// TopKs are the §VI-C k values.
var TopKs = []int{10, 100}

// Reps is how many times each RecDB-side query is repeated for averaging
// (OnTopDB queries run once; they are orders of magnitude slower).
var Reps = 3

// RunTable2 regenerates Table II: model build time per dataset × algorithm.
func RunTable2(scale float64) (Table, error) {
	t := Table{
		ID:     "Table II",
		Title:  "Recommender model building time",
		Header: []string{"Init. Time", "ItemCosCF", "ItemPearCF", "SVD"},
	}
	for _, spec := range []dataset.Spec{dataset.MovieLens, dataset.LDOS, dataset.Yelp} {
		if scale != 1 {
			spec = spec.Scaled(scale)
		}
		env, err := Setup(spec, Algos)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			spec.Name,
			dur(env.BuildTimes["ItemCosCF"]),
			dur(env.BuildTimes["ItemPearCF"]),
			dur(env.BuildTimes["SVD"]),
		})
	}
	return t, nil
}

// RunSelectivity regenerates Fig. 6 (MovieLens) or Fig. 7 (Yelp): query
// time vs selectivity factor for ItemCosCF and SVD, RecDB vs OnTopDB.
func RunSelectivity(figID string, spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     figID,
		Title:  fmt.Sprintf("Query time vs selectivity (%s)", spec.Name),
		Header: []string{"Selectivity", "Algo", "RecDB", "OnTopDB", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF", "SVD"})
	if err != nil {
		return t, err
	}
	for _, algo := range []string{"ItemCosCF", "SVD"} {
		for _, sel := range Selectivities {
			items := env.SelectivityItems(sel)
			recT, err := TimeN(Reps, func() error {
				_, err := env.RecDBSelectivity(algo, items)
				return err
			})
			if err != nil {
				return t, err
			}
			topT, err := Time(func() error {
				_, err := env.OnTopSelectivity(algo, items)
				return err
			})
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.1f%%", sel*100), algo,
				dur(recT), dur(topT), speedup(recT, topT),
			})
		}
	}
	t.Metrics = env.MetricsSnapshot()
	return t, nil
}

// RunJoin regenerates Fig. 8 (MovieLens) or Fig. 9 (LDOS-CoMoDa): join
// query time per algorithm, one-way and two-way joins, RecDB vs OnTopDB.
func RunJoin(figID string, spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     figID,
		Title:  fmt.Sprintf("Join query time (%s)", spec.Name),
		Header: []string{"Join", "Algo", "RecDB", "OnTopDB", "speedup"},
	}
	env, err := Setup(spec, Algos)
	if err != nil {
		return t, err
	}
	for _, twoWay := range []bool{false, true} {
		label := "one-way"
		if twoWay {
			label = "two-way"
		}
		for _, algo := range Algos {
			recT, err := TimeN(Reps, func() error {
				_, err := env.RecDBJoin(algo, twoWay)
				return err
			})
			if err != nil {
				return t, err
			}
			topT, err := Time(func() error {
				_, err := env.OnTopJoin(algo, twoWay)
				return err
			})
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				label, algo, dur(recT), dur(topT), speedup(recT, topT),
			})
		}
	}
	t.Metrics = env.MetricsSnapshot()
	return t, nil
}

// RunTopK regenerates Fig. 10 (MovieLens), Fig. 11 (LDOS-CoMoDa), or
// Fig. 12 (Yelp): top-k recommendation time with the RecScoreIndex warm
// for RecDB, per algorithm and k, vs OnTopDB.
func RunTopK(figID string, spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     figID,
		Title:  fmt.Sprintf("Top-K recommendation query time (%s)", spec.Name),
		Header: []string{"K", "Algo", "RecDB", "OnTopDB", "speedup", "RecDB plan"},
	}
	env, err := Setup(spec, Algos)
	if err != nil {
		return t, err
	}
	if err := env.MaterializeQueryUser(Algos); err != nil {
		return t, err
	}
	for _, k := range TopKs {
		for _, algo := range Algos {
			var strategy string
			recT, err := TimeN(Reps, func() error {
				_, s, err := env.RecDBTopK(algo, k)
				strategy = s
				return err
			})
			if err != nil {
				return t, err
			}
			topT, err := Time(func() error {
				_, err := env.OnTopTopK(algo, k)
				return err
			})
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k), algo,
				dur(recT), dur(topT), speedup(recT, topT), strategy,
			})
		}
	}
	t.Metrics = env.MetricsSnapshot()
	return t, nil
}

func speedup(rec, top time.Duration) string {
	if rec <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(top)/float64(rec))
}

// ---- Ablations (DESIGN.md §4) ----

// RunAblationFilterPushdown measures the selectivity query with the iid
// list pushed into the RECOMMEND operator (list source, the policy's
// choice) and with the scan source forced, which scores every item for the
// user and filters above the operator.
func RunAblationFilterPushdown(spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     "Ablation A1",
		Title:  fmt.Sprintf("FilterRecommend list source vs forced scan source + Filter (%s)", spec.Name),
		Header: []string{"Selectivity", "list source", "scan forced", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"})
	if err != nil {
		return t, err
	}
	for _, sel := range Selectivities {
		items := env.SelectivityItems(sel)
		on, err := TimeN(Reps, func() error {
			_, err := env.RecDBSelectivity("ItemCosCF", items)
			return err
		})
		if err != nil {
			return t, err
		}
		env.Eng.Planner().Source = exec.SourceScan
		off, err := TimeN(Reps, func() error {
			_, err := env.RecDBSelectivity("ItemCosCF", items)
			return err
		})
		env.Eng.Planner().Source = exec.SourceAuto
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f%%", sel*100), dur(on), dur(off), speedup(on, off),
		})
	}
	return t, nil
}

// RunAblationJoinRecommend measures the join query with the operator
// driving the join (outer source, the policy's choice) vs the scan source
// forced, which leaves a HashJoin above the operator.
func RunAblationJoinRecommend(spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     "Ablation A2",
		Title:  fmt.Sprintf("JoinRecommend outer source vs forced scan source + HashJoin (%s)", spec.Name),
		Header: []string{"Join", "outer source", "scan forced", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"})
	if err != nil {
		return t, err
	}
	for _, twoWay := range []bool{false, true} {
		label := "one-way"
		if twoWay {
			label = "two-way"
		}
		on, err := TimeN(Reps, func() error {
			_, err := env.RecDBJoin("ItemCosCF", twoWay)
			return err
		})
		if err != nil {
			return t, err
		}
		env.Eng.Planner().Source = exec.SourceScan
		off, err := TimeN(Reps, func() error {
			_, err := env.RecDBJoin("ItemCosCF", twoWay)
			return err
		})
		env.Eng.Planner().Source = exec.SourceAuto
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{label, dur(on), dur(off), speedup(on, off)})
	}
	return t, nil
}

// RunAblationRecScoreIndex measures top-k from the RecScoreIndex (rectree
// source, the policy's choice for a materialized user) vs the scan source
// forced, which predicts online and keeps the k best.
func RunAblationRecScoreIndex(spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     "Ablation A3",
		Title:  fmt.Sprintf("IndexRecommend rectree source vs forced scan source (%s)", spec.Name),
		Header: []string{"K", "rectree source", "scan forced", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"})
	if err != nil {
		return t, err
	}
	if err := env.MaterializeQueryUser([]string{"ItemCosCF"}); err != nil {
		return t, err
	}
	for _, k := range TopKs {
		on, err := TimeN(Reps, func() error {
			_, _, err := env.RecDBTopK("ItemCosCF", k)
			return err
		})
		if err != nil {
			return t, err
		}
		env.Eng.Planner().Source = exec.SourceScan
		off, err := TimeN(Reps, func() error {
			_, _, err := env.RecDBTopK("ItemCosCF", k)
			return err
		})
		env.Eng.Planner().Source = exec.SourceAuto
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), dur(on), dur(off), speedup(on, off)})
	}
	return t, nil
}

// A5's demand: hotnessQueries top-10s whose users are drawn from a Zipf
// distribution over the model's users, one seeded source for every run.
const (
	hotnessQueries = 200
	hotnessSeed    = 1
	hotnessSkew    = 1.1 // Zipf s: rank k is drawn ∝ (1+k)^-s
)

// ZipfUsers draws n query users from users, rank k in the given order with
// probability ∝ (1+k)^-1.1, at a fixed seed: the same draws every call.
func ZipfUsers(users []int64, n int) []int64 {
	z := rand.NewZipf(rand.New(rand.NewSource(hotnessSeed)), hotnessSkew, 1, uint64(len(users)-1))
	out := make([]int64, n)
	for x := range out {
		out[x] = users[z.Uint64()]
	}
	return out
}

// HotnessPass runs one Algorithm 4 pass at threshold over env's only
// recommender, after a query from each of users (demand) and rating
// updates on every item that decay harmonically with its rank, so a few
// items are very hot (consumption). It returns the recommender's cache.
func (e *Env) HotnessPass(threshold float64, users []int64) *reccache.Manager {
	cache := e.Eng.Recommenders().List()[0].Cache()
	cache.Threshold = threshold
	for _, u := range users {
		cache.RecordQuery(u)
	}
	for rank, it := range e.Data.Items {
		for q := 0; q < 1+32/(rank+1); q++ {
			cache.RecordUpdate(it.ID)
		}
	}
	cache.Run()
	return cache
}

// RunAblationHotness sweeps HOTNESS-THRESHOLD from 0 to 1 over Zipf-skewed
// demand and reports what Algorithm 4 stores (users cached, entries)
// against how the same Zipf-drawn top-10s are then served: the share the
// RecScoreIndex answers, and their latency as median [Q1, Q3]. The last
// row runs at 1.01: the hottest user's ratio is exactly 1, which 1.00
// would still admit.
func RunAblationHotness(spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     "Ablation A5",
		Title:  fmt.Sprintf("HOTNESS-THRESHOLD sweep, Zipf-drawn users (%s)", spec.Name),
		Header: []string{"threshold", "users cached", "entries stored", "IndexRecommend share", "top-10 median [Q1, Q3]"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"})
	if err != nil {
		return t, err
	}
	for _, threshold := range []float64{0, 0.25, 0.5, 0.75, 1.01} {
		// Each threshold starts from a recommender created afresh: empty
		// histograms and an empty RecScoreIndex.
		if _, err := env.Eng.ExecScript(`DROP RECOMMENDER Rec_ItemCosCF;
			CREATE RECOMMENDER Rec_ItemCosCF ON ratings USERS FROM uid ITEMS FROM iid
			RATINGS FROM ratingval USING ItemCosCF`); err != nil {
			return t, err
		}
		users := env.Eng.Recommenders().List()[0].Store().UserIDs()
		draws := ZipfUsers(users, hotnessQueries)
		ix := env.HotnessPass(threshold, draws).Index()
		cached := 0
		for _, u := range users {
			if ix.Complete(u) {
				cached++
			}
		}
		// Each draw's latency is the best of Reps runs, after the set-up's
		// garbage is collected.
		runtime.GC()
		lat := make([]time.Duration, len(draws))
		indexed := 0
		for x, u := range draws {
			var strategy string
			for r := 0; r < Reps; r++ {
				start := time.Now()
				_, s, err := env.RecDBTopKFor("ItemCosCF", u, 10)
				d := time.Since(start)
				if err != nil {
					return t, err
				}
				if r == 0 || d < lat[x] {
					lat[x] = d
				}
				strategy = s
			}
			if strategy == "IndexRecommend" {
				indexed++
			}
		}
		slices.Sort(lat)
		q := func(f float64) string { return dur(lat[int(f*float64(len(lat)-1))]) }
		label := fmt.Sprintf("%.2f", min(threshold, 1))
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprint(cached), fmt.Sprint(ix.Len()),
			fmt.Sprintf("%.2f", float64(indexed)/float64(len(draws))),
			fmt.Sprintf("%s [%s, %s]", q(0.5), q(0.25), q(0.75)),
		})
	}
	return t, nil
}
