package exec

import (
	"runtime"
	"testing"

	"recdb/internal/rec"
)

// benchRatings is a synthetic rating set in which every user rates about
// one item in every: at one in eight, item-item similarity lists are long.
func benchRatings(users, items, every int) []rec.Rating {
	state := uint64(42)
	var out []rec.Rating
	for u := 1; u <= users; u++ {
		for i := 1; i <= items; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			if (state>>33)%uint64(every) == 0 {
				out = append(out, rec.Rating{User: int64(u), Item: int64(i), Value: float64(1 + (state>>40)%5)})
			}
		}
	}
	return out
}

func benchStore(tb testing.TB, ratings []rec.Rating) *rec.ModelStore {
	tb.Helper()
	store, err := rec.Build(ratings, rec.ItemCosCF, rec.BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return store
}

// filterRecommendTop10 is the plan of a single-user top-10 query:
// FilterRecommend (unseen items only, keeping the 10 best) → Limit 10.
func filterRecommendTop10(store *rec.ModelStore, user int64) Operator {
	op := NewRecommend(store, recTestSchema())
	op.Users = []int64{user}
	op.IncludeSeen = false
	op.K = 10
	return NewLimit(op, 10)
}

// BenchmarkFilterRecommendTop10 times a single-user item-based top-10 over
// whole similarity lists, scored from the user's side: at lists=full, 150
// users rating one item in eight of 300, and at shape=ledger-shard, the
// size of one shard of the benchmark ledger (94 users rating one in
// sixteen of 336 items, ~2 000 ratings), the statement recommend.scan
// serves.
func BenchmarkFilterRecommendTop10(b *testing.B) {
	for _, tc := range []struct {
		name    string
		ratings []rec.Rating
	}{
		{"lists=full", benchRatings(150, 300, 8)},
		{"shape=ledger-shard", benchRatings(94, 336, 16)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			store := benchStore(b, tc.ratings)
			users := store.UserIDs()
			plans := make([]Operator, len(users))
			for i, u := range users {
				plans[i] = filterRecommendTop10(store, u)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := Collect(plans[i%len(plans)])
				if err != nil || len(rows) != 10 {
					b.Fatalf("top-10: %d rows, %v", len(rows), err)
				}
			}
		})
	}
}

// TestFilterRecommendTop10Allocs: a single-user item-based top-10 reads
// every similarity list it needs once and makes a row only for the rows it
// returns, so how often it allocates is set by K, and how much by the
// number of candidate items (the scorer's accumulator and marks, 20 bytes
// an item), not by how many neighbour rows it reads: over the same items,
// a model with 30x the rows must stay inside the same budgets. Measured on
// go1.24/amd64: 20 allocations and 11 248 bytes on both fixtures (the heap
// and the output grow by append, O(log K) allocations, and the K rows'
// values share one). The budgets are K + 16 allocations and 24 bytes an
// item plus 8 KiB.
func TestFilterRecommendTop10Allocs(t *testing.T) {
	measure := func(ratings []rec.Rating) (allocs, bytes float64, neighborRows int64, items int) {
		store := benchStore(t, ratings)
		plan := filterRecommendTop10(store, store.UserIDs()[0])
		run := func() {
			if rows, err := Collect(plan); err != nil || len(rows) != 10 {
				t.Fatalf("top-10: %d rows, %v", len(rows), err)
			}
		}
		allocs = testing.AllocsPerRun(5, run)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / runs
		for _, i := range store.ItemIDs() {
			neighborRows += int64(len(store.ItemNeighbors(i)))
		}
		return allocs, bytes, neighborRows, len(store.ItemIDs())
	}
	small, smallBytes, smallRows, items := measure(benchRatings(2400, 300, 300))
	full, fullBytes, fullRows, denseItems := measure(benchRatings(150, 300, 8))
	if items != denseItems || fullRows < 30*smallRows {
		t.Fatalf("fixture: %d vs %d items, %d vs %d neighbour rows", denseItems, items, fullRows, smallRows)
	}
	const k = 10
	budget := float64(k + 16)
	if small > budget || full > budget {
		t.Fatalf("allocs per top-10 over %d items: %.0f at %d neighbour rows, %.0f at %d; budget %.0f",
			items, small, smallRows, full, fullRows, budget)
	}
	bytesBudget := float64(24*items + 8<<10)
	if smallBytes > bytesBudget || fullBytes > bytesBudget {
		t.Fatalf("bytes per top-10 over %d items: %.0f at %d neighbour rows, %.0f at %d; budget %.0f",
			items, smallBytes, smallRows, fullBytes, fullRows, bytesBudget)
	}
}
