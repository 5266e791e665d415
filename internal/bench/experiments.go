package bench

import (
	"fmt"
	"time"

	"recdb/internal/dataset"
	"recdb/internal/exec"
	"recdb/internal/metrics"
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
func RunTable2(scale float64, neighborhood int) (Table, error) {
	t := Table{
		ID:     "Table II",
		Title:  "Recommender model building time",
		Header: []string{"Init. Time", "ItemCosCF", "ItemPearCF", "SVD"},
	}
	for _, spec := range []dataset.Spec{dataset.MovieLens, dataset.LDOS, dataset.Yelp} {
		if scale != 1 {
			spec = spec.Scaled(scale)
		}
		env, err := Setup(spec, Algos, neighborhood)
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
func RunSelectivity(figID string, spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     figID,
		Title:  fmt.Sprintf("Query time vs selectivity (%s)", spec.Name),
		Header: []string{"Selectivity", "Algo", "RecDB", "OnTopDB", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF", "SVD"}, neighborhood)
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
func RunJoin(figID string, spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     figID,
		Title:  fmt.Sprintf("Join query time (%s)", spec.Name),
		Header: []string{"Join", "Algo", "RecDB", "OnTopDB", "speedup"},
	}
	env, err := Setup(spec, Algos, neighborhood)
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
func RunTopK(figID string, spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     figID,
		Title:  fmt.Sprintf("Top-K recommendation query time (%s)", spec.Name),
		Header: []string{"K", "Algo", "RecDB", "OnTopDB", "speedup", "RecDB plan"},
	}
	env, err := Setup(spec, Algos, neighborhood)
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
func RunAblationFilterPushdown(spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     "Ablation A1",
		Title:  fmt.Sprintf("FilterRecommend list source vs forced scan source + Filter (%s)", spec.Name),
		Header: []string{"Selectivity", "list source", "scan forced", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"}, neighborhood)
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
func RunAblationJoinRecommend(spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     "Ablation A2",
		Title:  fmt.Sprintf("JoinRecommend outer source vs forced scan source + HashJoin (%s)", spec.Name),
		Header: []string{"Join", "outer source", "scan forced", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"}, neighborhood)
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
func RunAblationRecScoreIndex(spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     "Ablation A3",
		Title:  fmt.Sprintf("IndexRecommend rectree source vs forced scan source (%s)", spec.Name),
		Header: []string{"K", "rectree source", "scan forced", "speedup"},
	}
	env, err := Setup(spec, []string{"ItemCosCF"}, neighborhood)
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

// RunAblationNeighborhood measures model build and query time across
// neighborhood-size caps (0 = the paper's full lists).
func RunAblationNeighborhood(spec dataset.Spec) (Table, error) {
	t := Table{
		ID:     "Ablation A4",
		Title:  fmt.Sprintf("Neighborhood truncation (%s)", spec.Name),
		Header: []string{"size", "build", "top-10 query"},
	}
	for _, size := range []int{0, 200, 64, 16} {
		env, err := Setup(spec, []string{"ItemCosCF"}, size)
		if err != nil {
			return t, err
		}
		q, err := TimeN(Reps, func() error {
			_, _, err := env.RecDBTopK("ItemCosCF", 10)
			return err
		})
		if err != nil {
			return t, err
		}
		label := fmt.Sprintf("%d", size)
		if size == 0 {
			label = "full"
		}
		t.Rows = append(t.Rows, []string{label, dur(env.BuildTimes["ItemCosCF"]), dur(q)})
	}
	return t, nil
}

// RunAblationHotness sweeps HOTNESS-THRESHOLD from 0 to 1 and reports the
// materialized entry count (storage) against hot-user top-k latency.
func RunAblationHotness(spec dataset.Spec, neighborhood int) (Table, error) {
	t := Table{
		ID:     "Ablation A5",
		Title:  fmt.Sprintf("HOTNESS-THRESHOLD sweep (%s)", spec.Name),
		Header: []string{"threshold", "materialized entries", "hot-user top-10", "plan"},
	}
	for _, threshold := range []float64{0, 0.25, 0.5, 0.75, 1.01} {
		env, err := Setup(spec, []string{"ItemCosCF"}, neighborhood)
		if err != nil {
			return t, err
		}
		r := env.Eng.Recommenders().List()[0] // Rec_ItemCosCF, the only one
		cache := r.Cache()
		cache.Threshold = threshold
		// Drive demand and consumption with skew, so hotness spans the
		// whole (0, 1] range: the query user is the hottest, other users
		// trail off, and item consumption decays with rank.
		for i := 0; i < 16; i++ {
			cache.RecordQuery(env.QueryUser)
		}
		for rank, u := range r.Store().UserIDs() {
			if rank >= 8 {
				break
			}
			for q := 0; q < 8-rank; q++ {
				cache.RecordQuery(u)
			}
		}
		for rank, it := range env.Data.Items {
			updates := 1 + 32/(rank+1) // harmonic decay: a few very hot items
			for q := 0; q < updates; q++ {
				cache.RecordUpdate(it.ID)
			}
		}
		cache.Run()
		var strategy string
		q, err := TimeN(Reps, func() error {
			_, s, err := env.RecDBTopK("ItemCosCF", 10)
			strategy = s
			return err
		})
		if err != nil {
			return t, err
		}
		label := fmt.Sprintf("%.2f", threshold)
		if threshold > 1 {
			label = "1.00"
		}
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprintf("%d", cache.Index().Len()), dur(q), strategy,
		})
	}
	return t, nil
}
