package bench

import (
	"fmt"
	"time"

	"recdb/internal/dataset"
	"recdb/internal/engine"
	"recdb/internal/exec"
	"recdb/internal/rec"
)

// annQueryUsers is how many distinct users each ANN measurement cycles
// through (round-robin), so the numbers aren't one hot user's cache line.
const annQueryUsers = 32

// RunANN maps the IVF index's recall@k vs speedup frontier: for each
// dataset scale, it measures exact-scan top-k throughput (the vector path
// disabled), then sweeps nprobe from 1 to the full centroid count,
// reporting per-point recall@k against the exact results and throughput
// speedup. The frontier is the evidence for the index's contract: recall
// degrades gracefully and controllably with probe width while the exact
// setting (nprobe = all centroids) stays at recall 1.0 by construction.
func RunANN(base dataset.Spec, scales []float64, k int) (Table, error) {
	t := Table{
		ID:    "ANN",
		Title: fmt.Sprintf("IVF top-%d: recall vs speedup frontier (%s)", k, base.Name),
		Header: []string{
			"Dataset", "Items", "Centroids", "nprobe", fmt.Sprintf("recall@%d", k),
			"ops/s", "speedup",
		},
	}
	for _, scale := range scales {
		spec := base
		if scale != 1.0 {
			spec = base.Scaled(scale)
		}
		if err := runANNScale(&t, spec, k); err != nil {
			return t, err
		}
	}
	return t, nil
}

func runANNScale(t *Table, spec dataset.Spec, k int) error {
	eng := engine.New(engine.Config{Rec: rec.Options{Build: rec.BuildOptions{SVDSeed: 42}}})
	d := dataset.Generate(spec)
	if err := dataset.Load(eng, d); err != nil {
		return err
	}
	if _, err := eng.Exec(`CREATE RECOMMENDER Rec_SVD ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`); err != nil {
		return err
	}

	users := make([]int64, 0, annQueryUsers)
	for i := 0; i < annQueryUsers && i < len(d.Users); i++ {
		users = append(users, d.Users[(i*len(d.Users))/annQueryUsers].ID)
	}
	query := func(u int64) (*engine.QueryResult, error) {
		return eng.Query(fmt.Sprintf(
			`SELECT R.uid, R.iid, R.ratingval FROM ratings R
			 RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD
			 WHERE R.uid = %d ORDER BY R.ratingval DESC LIMIT %d`, u, k))
	}

	// Exact ground truth per user, and the exact-scan throughput baseline.
	eng.Planner().Source = exec.SourceScan
	truth := make(map[int64]map[int64]bool, len(users))
	for _, u := range users {
		res, err := query(u)
		if err != nil {
			return err
		}
		set := make(map[int64]bool, len(res.Rows))
		for _, r := range res.Rows {
			set[r[1].Int()] = true
		}
		truth[u] = set
	}
	exactOps, err := annThroughput(query, users)
	if err != nil {
		return err
	}
	eng.Planner().Source = exec.SourceAuto

	// Centroid count, read off the live plan.
	probe, err := query(users[0])
	if err != nil {
		return err
	}
	if probe.Explain.Strategy != "VectorRecommend" {
		return fmt.Errorf("bench: ann sweep not on the vector plan (strategy %s)", probe.Explain.Strategy)
	}
	rcmd, ok := eng.Recommenders().Get("Rec_SVD")
	if !ok {
		return fmt.Errorf("bench: recommender Rec_SVD missing")
	}
	centroids := rcmd.Store().ANN().NumCentroids()

	t.Rows = append(t.Rows, []string{
		spec.Name, fmt.Sprintf("%d", spec.Items), fmt.Sprintf("%d", centroids),
		"exact scan", "1.000", fmt.Sprintf("%.0f", exactOps), "1.0x",
	})

	for nprobe := 1; ; nprobe *= 2 {
		if nprobe > centroids {
			nprobe = centroids
		}
		eng.Planner().VectorProbe = nprobe
		hits, want := 0, 0
		for _, u := range users {
			res, err := query(u)
			if err != nil {
				return err
			}
			for item := range truth[u] {
				want++
				for _, r := range res.Rows {
					if r[1].Int() == item {
						hits++
						break
					}
				}
			}
		}
		ops, err := annThroughput(query, users)
		if err != nil {
			return err
		}
		recall := 1.0
		if want > 0 {
			recall = float64(hits) / float64(want)
		}
		t.Rows = append(t.Rows, []string{
			spec.Name, fmt.Sprintf("%d", spec.Items), fmt.Sprintf("%d", centroids),
			fmt.Sprintf("%d", nprobe), fmt.Sprintf("%.3f", recall),
			fmt.Sprintf("%.0f", ops), fmt.Sprintf("%.1fx", ops/exactOps),
		})
		if nprobe == centroids {
			break
		}
	}
	eng.Planner().VectorProbe = 0
	return nil
}

// annThroughput measures queries/second over the user set, repeated Reps
// times for stability.
func annThroughput(query func(int64) (*engine.QueryResult, error), users []int64) (float64, error) {
	n := 0
	start := time.Now()
	for rep := 0; rep < Reps; rep++ {
		for _, u := range users {
			if _, err := query(u); err != nil {
				return 0, err
			}
			n++
		}
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(n) / elapsed.Seconds(), nil
}
