// Package bench is the shared harness behind the root bench_test.go and
// cmd/recdb-bench: it sets up the synthetic datasets, creates the in-DBMS
// recommenders and the OnTopDB baseline side by side, and issues the query
// shapes of every experiment in §VI (selectivity, join, and top-k), so the
// paper's tables and figures can be regenerated as timed runs.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"recdb/internal/dataset"
	"recdb/internal/engine"
	"recdb/internal/metrics"
	"recdb/internal/ontop"
	"recdb/internal/rec"
)

// Env is one prepared benchmark environment: a dataset loaded into an
// engine, with matching in-DBMS and OnTopDB recommenders.
type Env struct {
	Eng        *engine.Engine
	OnTop      *ontop.Client
	Data       *dataset.Data
	BuildTimes map[string]time.Duration // algo → in-DBMS model build time

	// QueryUser is a reproducible "typical" querying user: the user at the
	// median rating-count among users with at least one unseen item.
	QueryUser int64

	itemIDs []int64
}

// Algos are the algorithms the paper benchmarks (Figs. 6-12, Table II).
var Algos = []string{"ItemCosCF", "ItemPearCF", "SVD"}

// Setup loads spec into a fresh engine and creates one in-DBMS recommender
// and one OnTopDB recommender per algorithm, each over full similarity
// lists, the paper's setting.
func Setup(spec dataset.Spec, algos []string) (*Env, error) {
	opts := rec.BuildOptions{SVDSeed: 42}
	eng := engine.New(engine.Config{Rec: rec.Options{Build: opts}})
	d := dataset.Generate(spec)
	if err := dataset.Load(eng, d); err != nil {
		return nil, err
	}
	env := &Env{
		Eng:        eng,
		OnTop:      ontop.New(eng),
		Data:       d,
		BuildTimes: make(map[string]time.Duration),
	}
	for _, algo := range algos {
		start := time.Now()
		if _, err := eng.Exec(fmt.Sprintf(
			`CREATE RECOMMENDER Rec_%s ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING %s`,
			algo, algo)); err != nil {
			return nil, err
		}
		env.BuildTimes[algo] = time.Since(start)
		if err := env.OnTop.CreateRecommender("OnTop_"+algo, "ratings", "uid", "iid", "ratingval", algo, opts); err != nil {
			return nil, err
		}
	}
	env.pickQueryUser()
	for _, it := range d.Items {
		env.itemIDs = append(env.itemIDs, it.ID)
	}
	return env, nil
}

func (e *Env) pickQueryUser() {
	counts := map[int64]int{}
	for _, r := range e.Data.Ratings {
		counts[r.User]++
	}
	type uc struct {
		u int64
		n int
	}
	var list []uc
	for u, n := range counts {
		if n < len(e.Data.Items) { // must have unseen items
			list = append(list, uc{u, n})
		}
	}
	if len(list) == 0 {
		e.QueryUser = 1
		return
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].n != list[b].n {
			return list[a].n < list[b].n
		}
		return list[a].u < list[b].u
	})
	e.QueryUser = list[len(list)/2].u
}

// MetricsSnapshot copies the environment engine's instrument registry,
// for embedding into a Table's JSON output.
func (e *Env) MetricsSnapshot() *metrics.Snapshot {
	s := e.Eng.Metrics().Snapshot()
	return &s
}

// SelectivityItems returns a deterministic item-id list covering the given
// fraction of the item table (the selectivity factor of §VI-A).
func (e *Env) SelectivityItems(fraction float64) []int64 {
	n := int(fraction * float64(len(e.itemIDs)))
	if n < 1 {
		n = 1
	}
	if n > len(e.itemIDs) {
		n = len(e.itemIDs)
	}
	// Evenly spaced ids avoid clustering artifacts.
	out := make([]int64, 0, n)
	step := float64(len(e.itemIDs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, e.itemIDs[int(float64(i)*step)])
	}
	return out
}

func idList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, ", ")
}

// ---- Experiment queries (RecDB side) ----

// RecDBSelectivity runs the §VI-A query shape: recommendation restricted
// by uid and an iid IN list. It returns the row count.
func (e *Env) RecDBSelectivity(algo string, items []int64) (int, error) {
	q := fmt.Sprintf(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING %s
		WHERE R.uid = %d AND R.iid IN (%s)`, algo, e.QueryUser, idList(items))
	res, err := e.Eng.Query(q)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// RecDBJoin runs the §VI-B query shape: recommendation joined with the
// items table under a genre filter (one-way), optionally also joining the
// users table (two-way).
func (e *Env) RecDBJoin(algo string, twoWay bool) (int, error) {
	q := fmt.Sprintf(`SELECT R.uid, M.name, R.ratingval FROM ratings R, items M
		RECOMMEND R.iid TO R.uid ON R.ratingval USING %s
		WHERE R.uid = %d AND M.iid = R.iid AND M.genre = 'Action'`, algo, e.QueryUser)
	if twoWay {
		q = fmt.Sprintf(`SELECT R.uid, M.name, U.name, R.ratingval FROM ratings R, items M, users U
			RECOMMEND R.iid TO R.uid ON R.ratingval USING %s
			WHERE R.uid = %d AND M.iid = R.iid AND M.genre = 'Action' AND U.uid = R.uid`,
			algo, e.QueryUser)
	}
	res, err := e.Eng.Query(q)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// RecDBTopK runs the §VI-C query shape: top-k recommendation ordered by
// predicted rating. Call MaterializeQueryUser first for the warm
// (IndexRecommend) configuration the paper measures.
func (e *Env) RecDBTopK(algo string, k int) (int, string, error) {
	return e.RecDBTopKFor(algo, e.QueryUser, k)
}

// RecDBTopKFor is RecDBTopK for the given user.
func (e *Env) RecDBTopKFor(algo string, user int64, k int) (int, string, error) {
	q := fmt.Sprintf(`SELECT R.uid, R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING %s
		WHERE R.uid = %d
		ORDER BY R.ratingval DESC LIMIT %d`, algo, user, k)
	res, err := e.Eng.Query(q)
	if err != nil {
		return 0, "", err
	}
	return len(res.Rows), res.Explain.Strategy, nil
}

// MaterializeQueryUser pre-computes the query user's RecTree for every
// given algorithm (the pre-computation of §IV-C).
func (e *Env) MaterializeQueryUser(algos []string) error {
	for _, algo := range algos {
		r, _ := e.Eng.Recommenders().Get("Rec_" + algo)
		if err := r.Cache().MaterializeUser(e.QueryUser); err != nil {
			return err
		}
	}
	return nil
}

// ---- Experiment queries (OnTopDB side) ----

// OnTopSelectivity is the baseline counterpart of RecDBSelectivity.
func (e *Env) OnTopSelectivity(algo string, items []int64) (int, error) {
	q := fmt.Sprintf(`SELECT s.uid, s.iid, s.ratingval FROM %s s
		WHERE s.uid = %d AND s.iid IN (%s)`,
		ontop.ScoresTable, e.QueryUser, idList(items))
	res, err := e.OnTop.Query("OnTop_"+algo, q)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// OnTopJoin is the baseline counterpart of RecDBJoin.
func (e *Env) OnTopJoin(algo string, twoWay bool) (int, error) {
	q := fmt.Sprintf(`SELECT s.uid, M.name, s.ratingval FROM %s s, items M
		WHERE s.uid = %d AND M.iid = s.iid AND M.genre = 'Action'`,
		ontop.ScoresTable, e.QueryUser)
	if twoWay {
		q = fmt.Sprintf(`SELECT s.uid, M.name, U.name, s.ratingval FROM %s s, items M, users U
			WHERE s.uid = %d AND M.iid = s.iid AND M.genre = 'Action' AND U.uid = s.uid`,
			ontop.ScoresTable, e.QueryUser)
	}
	res, err := e.OnTop.Query("OnTop_"+algo, q)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// OnTopTopK is the baseline counterpart of RecDBTopK.
func (e *Env) OnTopTopK(algo string, k int) (int, error) {
	q := fmt.Sprintf(`SELECT s.uid, s.iid, s.ratingval FROM %s s
		WHERE s.uid = %d ORDER BY s.ratingval DESC LIMIT %d`,
		ontop.ScoresTable, e.QueryUser, k)
	res, err := e.OnTop.Query("OnTop_"+algo, q)
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// Time runs fn once and returns its duration, failing fast on error.
func Time(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// TimeN runs fn n times and returns the average duration.
func TimeN(n int, fn func() error) (time.Duration, error) {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}
