package reccache

import (
	"fmt"
	"testing"

	"recdb/internal/recindex"
)

func idRange(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// TestMaterializeAllWorkersEquivalence asserts the RecScoreIndex ends up
// with identical contents at any worker count.
func TestMaterializeAllWorkersEquivalence(t *testing.T) {
	users, items := idRange(57), idRange(43)
	seen := map[int64]map[int64]float64{
		3:  {7: 4.0, 9: 2.0},
		12: {1: 5.0},
		57: {43: 1.0},
	}
	clock := func() float64 { return 0 }

	pred := &fakePredictor{users: users, items: items, seen: seen}
	build := func(workers int) *recindex.Index {
		m := New(func() Predictor { return pred }, 0, clock, Metrics{})
		if err := m.materializeAll(workers); err != nil {
			t.Fatal(err)
		}
		return m.Index()
	}

	want := build(1)
	for _, workers := range []int{3, 8, 100} {
		got := build(workers)
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: index has %d entries, want %d", workers, got.Len(), want.Len())
		}
		for _, u := range users {
			g, w := entries(got, u), entries(want, u)
			if len(g) != len(w) {
				t.Fatalf("workers=%d user %d: %d entries, want %d", workers, u, len(g), len(w))
			}
			for x := range w {
				if g[x] != w[x] {
					t.Fatalf("workers=%d user %d entry %d: got %v, want %v", workers, u, x, g[x], w[x])
				}
			}
		}
	}
}

// TestMaterializeUserUsesBatch checks the single-user path loads the
// user's side of the model once and skips rated items.
func TestMaterializeUserUsesBatch(t *testing.T) {
	pred := &fakePredictor{
		users: idRange(3), items: idRange(5),
		seen: map[int64]map[int64]float64{2: {4: 3.5}},
	}
	m := newFixed(pred, 0, func() float64 { return 0 })
	ix := m.Index()
	if err := m.MaterializeUser(2); err != nil {
		t.Fatal(err)
	}
	if n := pred.batchCalls.Load(); n != 1 {
		t.Fatalf("batchCalls = %d, want 1", n)
	}
	// Item 4 is rated: the tree is items 5, 3, 2, 1 scored 20+i.
	got := entries(ix, 2)
	if len(got) != 4 || got[0] != (recindex.Entry{Item: 5, Score: 25}) || got[1].Item != 3 {
		t.Fatalf("user 2's tree = %v, want items 5, 3, 2, 1", got)
	}
}

// slowPredictor gives each prediction a small arithmetic cost so the
// benchmark measures compute scaling rather than map overhead alone.
type slowPredictor struct {
	fakePredictor
}

func (s *slowPredictor) score(u, i int64) float64 {
	acc := float64(u ^ i)
	for k := 0; k < 400; k++ {
		acc = acc*1.0000001 + float64(k%7)
	}
	return acc
}

func (s *slowPredictor) PredictForUser(u int64, items []int64) ([]float64, []bool) {
	scores := make([]float64, len(items))
	oks := make([]bool, len(items))
	for x, i := range items {
		scores[x], oks[x] = s.score(u, i), true
	}
	return scores, oks
}

func BenchmarkMaterializeAll(b *testing.B) {
	pred := &slowPredictor{fakePredictor{users: idRange(200), items: idRange(300)}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := New(func() Predictor { return pred }, 0, func() float64 { return 0 }, Metrics{})
				if err := m.materializeAll(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
