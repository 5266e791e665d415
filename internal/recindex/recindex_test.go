package recindex

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestPutGetRemove(t *testing.T) {
	ix := New()
	ix.Put(1, 10, 4.5)
	ix.Put(1, 11, 3.0)
	ix.Put(2, 10, 2.0)

	if s, ok := ix.Get(1, 10); !ok || s != 4.5 {
		t.Fatalf("Get(1,10) = %v, %v", s, ok)
	}
	if _, ok := ix.Get(1, 99); ok {
		t.Fatal("missing item should not be found")
	}
	if _, ok := ix.Get(9, 10); ok {
		t.Fatal("missing user should not be found")
	}
	if ix.Len() != 3 || ix.UserLen(1) != 2 {
		t.Fatalf("Len=%d UserLen=%d", ix.Len(), ix.UserLen(1))
	}
	if !ix.Remove(1, 10) {
		t.Fatal("Remove should succeed")
	}
	if ix.Remove(1, 10) {
		t.Fatal("double Remove should fail")
	}
	if _, ok := ix.Get(1, 10); ok {
		t.Fatal("removed entry still present")
	}
}

func TestPutReplacesScore(t *testing.T) {
	ix := New()
	ix.Put(1, 10, 4.5)
	ix.Put(1, 10, 1.0) // replace: the old (4.5,10) key must vanish
	if ix.UserLen(1) != 1 {
		t.Fatalf("UserLen = %d, want 1", ix.UserLen(1))
	}
	top := ix.TopK(1, 10, nil)
	if len(top) != 1 || top[0].Score != 1.0 {
		t.Fatalf("TopK after replace: %v", top)
	}
}

func TestDescendOrder(t *testing.T) {
	ix := New()
	scores := []float64{3.5, 1.0, 4.5, 2.0, 4.5}
	for i, s := range scores {
		ix.Put(7, int64(100+i), s)
	}
	var got []float64
	ix.Descend(7, nil, func(e Entry) bool {
		got = append(got, e.Score)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("visited %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] > got[b] }) {
		t.Fatalf("not descending: %v", got)
	}
}

func TestDescendWithMaxScore(t *testing.T) {
	ix := New()
	for i := int64(0); i < 10; i++ {
		ix.Put(1, i, float64(i))
	}
	max := 5.0
	var got []float64
	ix.Descend(1, &max, func(e Entry) bool {
		got = append(got, e.Score)
		return true
	})
	if len(got) != 6 || got[0] != 5 {
		t.Fatalf("rating-predicate pushdown: %v", got)
	}
}

func TestTopKWithFilter(t *testing.T) {
	ix := New()
	for i := int64(0); i < 100; i++ {
		ix.Put(1, i, float64(i))
	}
	// Only even items (Phase III item-id filtering).
	top := ix.TopK(1, 3, func(e Entry) bool { return e.Item%2 == 0 })
	if len(top) != 3 || top[0].Item != 98 || top[1].Item != 96 || top[2].Item != 94 {
		t.Fatalf("filtered TopK: %v", top)
	}
	// K larger than available.
	all := ix.TopK(1, 1000, nil)
	if len(all) != 100 {
		t.Fatalf("TopK(1000) returned %d", len(all))
	}
}

func TestHasUserUsersClear(t *testing.T) {
	ix := New()
	ix.Put(1, 1, 1)
	ix.Put(2, 1, 1)
	if ix.UserLen(1) == 0 || ix.UserLen(3) != 0 {
		t.Fatal("users with entries wrong")
	}
	if len(ix.Users()) != 2 {
		t.Fatalf("Users: %v", ix.Users())
	}
	ix.RemoveUser(1)
	if ix.UserLen(1) != 0 {
		t.Fatal("RemoveUser failed")
	}
	ix.Clear()
	if ix.Len() != 0 || ix.UserLen(2) != 0 {
		t.Fatal("Clear failed")
	}
}

// TestCompleteTrees: only a tree filled whole is complete; a pair-by-pair
// tree never is, and one eviction ends completeness until the next Fill,
// which replaces the tree.
func TestCompleteTrees(t *testing.T) {
	ix := New()
	ix.Put(1, 1, 1)
	if ix.UserLen(1) == 0 || ix.Complete(1) {
		t.Fatal("a tree of admitted pairs is not complete")
	}
	ix.Fill(ix.Generation(), 1, []Entry{{Item: 2, Score: 4}, {Item: 3, Score: 2}})
	if !ix.Complete(1) || ix.UserLen(1) != 2 {
		t.Fatalf("filled tree: complete %v, %d entries", ix.Complete(1), ix.UserLen(1))
	}
	ix.Put(1, 4, 1)
	if !ix.Complete(1) {
		t.Fatal("an admission keeps a complete tree complete")
	}
	if ix.Remove(1, 99) || !ix.Complete(1) {
		t.Fatal("evicting an absent pair changes nothing")
	}
	ix.Remove(1, 3)
	if ix.Complete(1) || ix.UserLen(1) == 0 {
		t.Fatal("an eviction leaves the tree partial")
	}
	ix.Fill(ix.Generation(), 2, nil) // a user with nothing unrated
	if !ix.Complete(2) || ix.Complete(3) {
		t.Fatal("completeness of an empty fill or an absent user")
	}
	gen := ix.Generation()
	ix.Clear()
	if ix.Fill(gen, 3, []Entry{{Item: 2, Score: 4}}) || ix.Complete(3) || ix.Len() != 0 {
		t.Fatal("a fill from before a Clear was stored")
	}
}

func TestRemoveLastEntryDropsUser(t *testing.T) {
	ix := New()
	ix.Put(1, 1, 1)
	ix.Remove(1, 1)
	if ix.UserLen(1) != 0 {
		t.Fatal("user with no entries should not be materialized")
	}
}

func TestTiesOnScoreKeepAllItems(t *testing.T) {
	ix := New()
	for i := int64(0); i < 50; i++ {
		ix.Put(1, i, 3.0) // all tied
	}
	if ix.UserLen(1) != 50 {
		t.Fatalf("tied scores collapsed: %d", ix.UserLen(1))
	}
	top := ix.TopK(1, 50, nil)
	seen := map[int64]bool{}
	for _, e := range top {
		seen[e.Item] = true
	}
	if len(seen) != 50 {
		t.Fatalf("lost items on ties: %d", len(seen))
	}
}

func TestModelBasedProperty(t *testing.T) {
	type op struct {
		User   uint8
		Item   uint8
		Score  int8
		Remove bool
	}
	f := func(ops []op) bool {
		ix := New()
		model := map[[2]int64]float64{}
		for _, o := range ops {
			u, i := int64(o.User%4), int64(o.Item%16)
			if o.Remove {
				_, in := model[[2]int64{u, i}]
				if ix.Remove(u, i) != in {
					return false
				}
				delete(model, [2]int64{u, i})
			} else {
				ix.Put(u, i, float64(o.Score))
				model[[2]int64{u, i}] = float64(o.Score)
			}
		}
		if ix.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := ix.Get(k[0], k[1])
			if !ok || got != v {
				return false
			}
		}
		// Descend per user is sorted and complete.
		for u := int64(0); u < 4; u++ {
			var prev *float64
			count := 0
			okScan := true
			ix.Descend(u, nil, func(e Entry) bool {
				if prev != nil && e.Score > *prev {
					okScan = false
				}
				s := e.Score
				prev = &s
				count++
				return true
			})
			want := 0
			for k := range model {
				if k[0] == u {
					want++
				}
			}
			if !okScan || count != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
