package recindex

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"recdb/internal/btree"
	"recdb/internal/types"
)

// fill fills user's tree at the current generation.
func fill(t *testing.T, ix *Index, user int64, entries []Entry) {
	t.Helper()
	if !ix.Fill(ix.Generation(), user, entries) {
		t.Fatal("fill at the current generation was refused")
	}
}

// ramp returns entries for items lo..hi scored score(item).
func ramp(lo, hi int64, score func(int64) float64) []Entry {
	var out []Entry
	for i := lo; i <= hi; i++ {
		out = append(out, Entry{Item: i, Score: score(i)})
	}
	return out
}

// descend collects user's entries in Descend order.
func descend(ix *Index, user int64, maxScore *float64) []Entry {
	var out []Entry
	ix.Descend(user, maxScore, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestDescendOrder(t *testing.T) {
	ix := New()
	var entries []Entry
	for i, s := range []float64{3.5, 1.0, 4.5, 2.0, 4.5} {
		entries = append(entries, Entry{Item: int64(100 + i), Score: s})
	}
	fill(t, ix, 7, entries)
	got := descend(ix, 7, nil)
	if len(got) != 5 {
		t.Fatalf("visited %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a].Score > got[b].Score }) {
		t.Fatalf("not descending: %v", got)
	}
	var stopped int
	ix.Descend(7, nil, func(Entry) bool {
		stopped++
		return stopped < 2
	})
	if stopped != 2 {
		t.Fatalf("Descend went on for %d entries after fn returned false", stopped)
	}
}

func TestDescendWithMaxScore(t *testing.T) {
	ix := New()
	fill(t, ix, 1, ramp(0, 9, func(i int64) float64 { return float64(i) }))
	for _, c := range []struct {
		max   float64
		n     int
		first float64
	}{{5, 6, 5}, {5.5, 6, 5}, {-1, 0, 0}, {100, 10, 9}} {
		max := c.max
		got := descend(ix, 1, &max)
		if len(got) != c.n || (c.n > 0 && got[0].Score != c.first) {
			t.Fatalf("rating-predicate pushdown at %v: %v", c.max, got)
		}
	}
}

// TestTopKWithFilter: a top-k with an item filter (Phase III) is a Descend
// that skips filtered entries and stops after k.
func TestTopKWithFilter(t *testing.T) {
	ix := New()
	fill(t, ix, 1, ramp(0, 99, func(i int64) float64 { return float64(i) }))
	topK := func(k int, filter func(Entry) bool) []Entry {
		var out []Entry
		ix.Descend(1, nil, func(e Entry) bool {
			if filter(e) {
				out = append(out, e)
			}
			return len(out) < k
		})
		return out
	}
	top := topK(3, func(e Entry) bool { return e.Item%2 == 0 })
	if len(top) != 3 || top[0].Item != 98 || top[1].Item != 96 || top[2].Item != 94 {
		t.Fatalf("filtered top-k: %v", top)
	}
	if all := topK(1000, func(Entry) bool { return true }); len(all) != 100 {
		t.Fatalf("top-1000 returned %d", len(all))
	}
}

func TestHasUserUsersClear(t *testing.T) {
	ix := New()
	fill(t, ix, 1, []Entry{{Item: 1, Score: 1}})
	fill(t, ix, 2, []Entry{{Item: 1, Score: 1}})
	if !ix.Complete(1) || !ix.Complete(2) || ix.Complete(3) || ix.Len() != 2 {
		t.Fatal("users with trees wrong")
	}
	ix.RemoveUser(1)
	if ix.Complete(1) || len(descend(ix, 1, nil)) != 0 || ix.Len() != 1 {
		t.Fatal("RemoveUser failed")
	}
	ix.RemoveUser(9) // no tree: nothing to drop
	ix.Clear()
	if ix.Len() != 0 || ix.Complete(2) {
		t.Fatal("Clear failed")
	}
}

// TestCompleteTrees: a user has a tree once filled, also with nothing
// unrated; a second Fill replaces the tree whole; and a fill from before a
// Clear is refused.
func TestCompleteTrees(t *testing.T) {
	ix := New()
	if ix.Complete(1) {
		t.Fatal("a user never filled has no tree")
	}
	fill(t, ix, 1, []Entry{{Item: 2, Score: 4}, {Item: 3, Score: 2}})
	if !ix.Complete(1) || ix.Len() != 2 {
		t.Fatalf("filled tree: complete %v, %d entries", ix.Complete(1), ix.Len())
	}
	fill(t, ix, 1, []Entry{{Item: 3, Score: 1}})
	if got := descend(ix, 1, nil); len(got) != 1 || got[0] != (Entry{Item: 3, Score: 1}) {
		t.Fatalf("a second fill must replace the tree: %v", got)
	}
	fill(t, ix, 2, nil) // a user with nothing unrated
	if !ix.Complete(2) || ix.Complete(3) {
		t.Fatal("completeness of an empty fill or an absent user")
	}
	gen := ix.Generation()
	ix.Clear()
	if ix.Generation() != gen+1 {
		t.Fatalf("generation %d after a Clear from %d", ix.Generation(), gen)
	}
	if ix.Fill(gen, 3, []Entry{{Item: 2, Score: 4}}) || ix.Complete(3) || ix.Len() != 0 {
		t.Fatal("a fill from before a Clear was stored")
	}
}

// TestTiesOnScoreKeepAllItems: tied scores keep every item, read in
// descending item id, as the (score, item) key of a B+-tree orders them.
func TestTiesOnScoreKeepAllItems(t *testing.T) {
	ix := New()
	fill(t, ix, 1, ramp(0, 49, func(int64) float64 { return 3 }))
	got := descend(ix, 1, nil)
	if len(got) != 50 {
		t.Fatalf("tied scores collapsed: %d", len(got))
	}
	for x, e := range got {
		if e.Item != int64(49-x) {
			t.Fatalf("tie order at %d: %v", x, got)
		}
	}
	// The bound includes every item at its score.
	three := 3.0
	if n := len(descend(ix, 1, &three)); n != 50 {
		t.Fatalf("bound at the tied score kept %d of 50", n)
	}
}

// TestModelBasedProperty checks Fill, RemoveUser and Clear against a map
// model: every user's entries read back in (score desc, item desc) order,
// and a bound keeps exactly the entries at or under it.
func TestModelBasedProperty(t *testing.T) {
	type op struct {
		User   uint8
		Scores []int8 // one per item 0..len-1; the fill's entries
		Remove bool
		Clear  bool
	}
	f := func(ops []op, bound int8) bool {
		ix := New()
		model := map[int64]map[int64]float64{}
		for _, o := range ops {
			u := int64(o.User % 4)
			switch {
			case o.Clear:
				ix.Clear()
				model = map[int64]map[int64]float64{}
			case o.Remove:
				ix.RemoveUser(u)
				delete(model, u)
			default:
				var entries []Entry
				model[u] = map[int64]float64{}
				for i, s := range o.Scores {
					entries = append(entries, Entry{Item: int64(i), Score: float64(s)})
					model[u][int64(i)] = float64(s)
				}
				if !ix.Fill(ix.Generation(), u, entries) {
					return false
				}
			}
		}
		n := 0
		for _, m := range model {
			n += len(m)
		}
		if ix.Len() != n {
			return false
		}
		max := float64(bound)
		for u := int64(0); u < 4; u++ {
			m, has := model[u]
			if ix.Complete(u) != has {
				return false
			}
			got := descend(ix, u, nil)
			if len(got) != len(m) {
				return false
			}
			for x, e := range got {
				if s, ok := m[e.Item]; !ok || s != e.Score {
					return false
				}
				if x > 0 {
					p := got[x-1]
					if e.Score > p.Score || (e.Score == p.Score && e.Item >= p.Item) {
						return false
					}
				}
			}
			under := 0
			for _, s := range m {
				if s <= max {
					under++
				}
			}
			bounded := descend(ix, u, &max)
			if len(bounded) != under || (under > 0 && bounded[0] != got[len(got)-under]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderMatchesBTreeKey: a RecTree reads in exactly the order, and
// from exactly the bound, of a B+-tree keyed by the row (score, item) —
// the types.Compare order of the tree it replaced — signed zeros and
// ties included.
func TestOrderMatchesBTreeKey(t *testing.T) {
	f := func(scores []int8, bound int8) bool {
		var entries []Entry
		tr := btree.New(0)
		for i, s := range scores {
			score := float64(s % 4)
			if s < 0 && score == 0 {
				score = math.Copysign(0, -1)
			}
			entries = append(entries, Entry{Item: int64(i), Score: score})
			tr.Insert(types.Row{types.NewFloat(score), types.NewInt(int64(i))}, nil)
		}
		ix := New()
		ix.Fill(ix.Generation(), 1, entries)
		max := float64(bound % 4)
		for _, from := range []types.Row{nil, {types.NewFloat(max), types.NewInt(math.MaxInt64)}} {
			var want []Entry
			tr.Descend(from, func(k types.Row, _ any) bool {
				want = append(want, Entry{Item: k[1].Int(), Score: k[0].Float()})
				return true
			})
			bound := &max
			if from == nil {
				bound = nil
			}
			got := descend(ix, 1, bound)
			if len(got) != len(want) {
				return false
			}
			for x := range want {
				if got[x].Item != want[x].Item || math.Float64bits(got[x].Score) != math.Float64bits(want[x].Score) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFillAndDescend: Descend reads a tree outside the index's
// lock, which holds because a tree is never written after Fill stores it.
// Readers race writers that refill, drop and clear (run under -race).
func TestConcurrentFillAndDescend(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				ix.Fill(ix.Generation(), int64(n%3), ramp(0, 20, func(i int64) float64 { return float64((i * int64(n+w)) % 7) }))
				switch n % 10 {
				case 4:
					ix.RemoveUser(int64(n % 3))
				case 9:
					ix.Clear()
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				got := descend(ix, int64(n%3), nil)
				for x := 1; x < len(got); x++ {
					if got[x].Score > got[x-1].Score {
						t.Errorf("a tree read during writes is out of order: %v", got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
