// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI). Each paper artifact has one Benchmark* family; sub-benchmarks
// carry the parameters (dataset, algorithm, selectivity, k, system).
//
// These run on scaled-down datasets (default 0.25×) so `go test -bench=.`
// stays affordable; cmd/recdb-bench runs the same experiments at full
// scale and prints paper-style tables. Set RECDB_BENCH_SCALE to override.
package recdb

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"recdb/internal/bench"
	"recdb/internal/dataset"
	"recdb/internal/exec"
)

func benchScale() float64 {
	if s := os.Getenv("RECDB_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

// envCache shares prepared environments across sub-benchmarks.
var envCache sync.Map

func benchEnv(b *testing.B, spec dataset.Spec, algos []string) *bench.Env {
	b.Helper()
	key := fmt.Sprintf("%s|%v", spec.Name, algos)
	if v, ok := envCache.Load(key); ok {
		return v.(*bench.Env)
	}
	env, err := bench.Setup(spec, algos)
	if err != nil {
		b.Fatal(err)
	}
	envCache.Store(key, env)
	return env
}

func scaled(spec dataset.Spec) dataset.Spec { return spec.Scaled(benchScale()) }

// ---- Table II: model build time ----

func BenchmarkTable2_ModelBuild(b *testing.B) {
	for _, spec := range []dataset.Spec{
		scaled(dataset.MovieLens), scaled(dataset.LDOS), scaled(dataset.Yelp),
	} {
		for _, algo := range bench.Algos {
			b.Run(spec.Name+"/"+algo, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.Setup(spec, []string{algo}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Figs. 6 and 7: query time vs selectivity ----

func benchSelectivity(b *testing.B, spec dataset.Spec) {
	env := benchEnv(b, spec, []string{"ItemCosCF", "SVD"})
	for _, algo := range []string{"ItemCosCF", "SVD"} {
		for _, sel := range bench.Selectivities {
			items := env.SelectivityItems(sel)
			b.Run(fmt.Sprintf("%s/sel=%.1f%%/RecDB", algo, sel*100), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.RecDBSelectivity(algo, items); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/sel=%.1f%%/OnTopDB", algo, sel*100), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.OnTopSelectivity(algo, items); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig6_Selectivity_MovieLens(b *testing.B) {
	benchSelectivity(b, scaled(dataset.MovieLens))
}

func BenchmarkFig7_Selectivity_Yelp(b *testing.B) {
	benchSelectivity(b, scaled(dataset.Yelp))
}

// ---- Figs. 8 and 9: join query time ----

func benchJoin(b *testing.B, spec dataset.Spec) {
	env := benchEnv(b, spec, bench.Algos)
	for _, twoWay := range []bool{false, true} {
		label := "one-way"
		if twoWay {
			label = "two-way"
		}
		for _, algo := range bench.Algos {
			b.Run(fmt.Sprintf("%s/%s/RecDB", label, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.RecDBJoin(algo, twoWay); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/%s/OnTopDB", label, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.OnTopJoin(algo, twoWay); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig8_Join_MovieLens(b *testing.B) { benchJoin(b, scaled(dataset.MovieLens)) }

func BenchmarkFig9_Join_LDOS(b *testing.B) { benchJoin(b, dataset.LDOS) }

// ---- Figs. 10, 11, 12: top-k with pre-computation ----

func benchTopK(b *testing.B, spec dataset.Spec) {
	env := benchEnv(b, spec, bench.Algos)
	if err := env.MaterializeQueryUser(bench.Algos); err != nil {
		b.Fatal(err)
	}
	for _, k := range bench.TopKs {
		for _, algo := range bench.Algos {
			b.Run(fmt.Sprintf("k=%d/%s/RecDB", k, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := env.RecDBTopK(algo, k); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("k=%d/%s/OnTopDB", k, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := env.OnTopTopK(algo, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig10_TopK_MovieLens(b *testing.B) { benchTopK(b, scaled(dataset.MovieLens)) }

func BenchmarkFig11_TopK_LDOS(b *testing.B) { benchTopK(b, dataset.LDOS) }

func BenchmarkFig12_TopK_Yelp(b *testing.B) { benchTopK(b, scaled(dataset.Yelp)) }

// ---- Ablations (DESIGN.md §4) ----

// benchForcedScan runs query under the candidate source the policy picks
// ("on") and with the scan source forced ("off": nothing but the uid
// predicate is pushed into the operator).
func benchForcedScan(b *testing.B, env *bench.Env, name string, query func() error) {
	for _, src := range []exec.Source{exec.SourceAuto, exec.SourceScan} {
		label := "on"
		if src == exec.SourceScan {
			label = "off"
		}
		b.Run(name+"="+label, func(b *testing.B) {
			env.Eng.Planner().Source = src
			defer func() { env.Eng.Planner().Source = exec.SourceAuto }()
			for i := 0; i < b.N; i++ {
				if err := query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblation_FilterPushdown(b *testing.B) {
	env := benchEnv(b, scaled(dataset.MovieLens), []string{"ItemCosCF"})
	items := env.SelectivityItems(0.001)
	benchForcedScan(b, env, "pushdown", func() error {
		_, err := env.RecDBSelectivity("ItemCosCF", items)
		return err
	})
}

func BenchmarkAblation_JoinRecommend(b *testing.B) {
	env := benchEnv(b, scaled(dataset.MovieLens), []string{"ItemCosCF"})
	benchForcedScan(b, env, "joinrecommend", func() error {
		_, err := env.RecDBJoin("ItemCosCF", false)
		return err
	})
}

func BenchmarkAblation_RecScoreIndex(b *testing.B) {
	env := benchEnv(b, scaled(dataset.MovieLens), []string{"ItemCosCF"})
	if err := env.MaterializeQueryUser([]string{"ItemCosCF"}); err != nil {
		b.Fatal(err)
	}
	benchForcedScan(b, env, "recscoreindex", func() error {
		_, _, err := env.RecDBTopK("ItemCosCF", 10)
		return err
	})
}

func BenchmarkAblation_HotnessThreshold(b *testing.B) {
	spec := scaled(dataset.MovieLens)
	for _, threshold := range []float64{0, 0.5, 1.01} {
		env, err := bench.Setup(spec, []string{"ItemCosCF"})
		if err != nil {
			b.Fatal(err)
		}
		// Zipf-skewed demand, one Algorithm 4 pass, then the same draws
		// are served: the hot users from their RecTrees.
		draws := bench.ZipfUsers(env.Eng.Recommenders().List()[0].Store().UserIDs(), 200)
		ix := env.HotnessPass(threshold, draws).Index()
		b.Run(fmt.Sprintf("threshold=%.2f", threshold), func(b *testing.B) {
			indexed := 0
			for i := 0; i < b.N; i++ {
				_, strategy, err := env.RecDBTopKFor("ItemCosCF", draws[i%len(draws)], 10)
				if err != nil {
					b.Fatal(err)
				}
				if strategy == "IndexRecommend" {
					indexed++
				}
			}
			b.ReportMetric(float64(ix.Len()), "materialized_entries")
			b.ReportMetric(float64(indexed)/float64(b.N), "index_share")
		})
	}
}
