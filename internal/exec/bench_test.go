package exec

import (
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/rec"
)

// benchRatings is a dense-ish synthetic rating set: every user rates
// about one item in eight, so item-item similarity lists are long.
func benchRatings(users, items int) []rec.Rating {
	state := uint64(42)
	var out []rec.Rating
	for u := 1; u <= users; u++ {
		for i := 1; i <= items; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			if (state>>33)%8 == 0 {
				out = append(out, rec.Rating{User: int64(u), Item: int64(i), Value: float64(1 + (state>>40)%5)})
			}
		}
	}
	return out
}

func benchStore(tb testing.TB, neighborhoodSize int) *rec.ModelStore {
	tb.Helper()
	model, err := rec.Build(benchRatings(150, 300), rec.ItemCosCF, rec.BuildOptions{NeighborhoodSize: neighborhoodSize})
	if err != nil {
		tb.Fatal(err)
	}
	store, err := rec.Materialize(catalog.New(nil, 0), "bench", model)
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

func BenchmarkFilterRecommendTop10(b *testing.B) {
	store := benchStore(b, 0)
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
}

// TestFilterRecommendTop10Allocs: a single-user item-based top-10 streams
// every similarity run past the user's ratings, so what it allocates is
// set by the number of candidate items (output rows, one seek per item),
// not by how many neighbour rows it reads: a model with 30x the rows
// must stay inside the same budget.
func TestFilterRecommendTop10Allocs(t *testing.T) {
	measure := func(neighborhoodSize int) (allocs float64, neighborRows int64, items int) {
		store := benchStore(t, neighborhoodSize)
		plan := filterRecommendTop10(store, store.UserIDs()[0])
		allocs = testing.AllocsPerRun(5, func() {
			if rows, err := Collect(plan); err != nil || len(rows) != 10 {
				t.Fatalf("top-10: %d rows, %v", len(rows), err)
			}
		})
		return allocs, store.ItemNeighborhood.Heap.NumRows(), len(store.ItemIDs())
	}
	small, smallRows, items := measure(5)
	full, fullRows, _ := measure(0)
	if fullRows < 30*smallRows {
		t.Fatalf("fixture: %d vs %d neighbour rows", fullRows, smallRows)
	}
	budget := float64(6*items + 64)
	if small > budget || full > budget {
		t.Fatalf("allocs per top-10 over %d items: %.0f at %d neighbour rows, %.0f at %d; budget %.0f",
			items, small, smallRows, full, fullRows, budget)
	}
}
