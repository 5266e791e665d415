package rec

import (
	"fmt"
	"math"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// runRow is one row of a (key, id, val) table with where it lives.
type runRow struct {
	rid storage.RID
	id  int64
	val float64
}

// runShapes records which awkward run shapes a checked table contained,
// so a test can prove its fixture exercised them.
type runShapes struct {
	keys      int
	maxPages  int  // longest run, in pages spanned
	midPage   bool // some run is followed by another key's row on the same page
	pageFlush bool // some run ends on the last slot of a page that is not the heap's last
}

// indexRuns is the oracle: the access path scanRun replaced. It walks the
// whole index on col in key order and fetches every row by RID, one
// buffer-pool pin and one decoded Row per tuple.
func indexRuns(t *testing.T, tab *catalog.Table, col string) (keys []int64, runs map[int64][]runRow) {
	t.Helper()
	idx, ok := tab.IndexOn(col)
	if !ok {
		t.Fatalf("%s has no %s index", tab.Name, col)
	}
	runs = make(map[int64][]runRow)
	tab.ScanIndexRange(idx, types.Null(), types.Null(), func(rid storage.RID) bool {
		row, err := tab.Heap.Get(rid)
		if err != nil {
			t.Fatalf("%s: Get(%v): %v", tab.Name, rid, err)
		}
		k := row[0].Int()
		if _, seen := runs[k]; !seen {
			keys = append(keys, k)
		}
		runs[k] = append(runs[k], runRow{rid, row[1].Int(), row[2].Float()})
		return true
	})
	return keys, runs
}

// checkRuns asserts, for every key of tab, that the clustered-run read
// returns exactly the rows the index-driven read returns, in the same
// order; that those rows are physically consecutive (which is what makes
// "same rows" mean "same RID set": the run read starts at the first RID
// and returns as many rows as the index holds for the key); that the read
// fetches each page of the run once — plus the next page only when the
// run fills its last page, since the key boundary is then the first tuple
// over the page break; and, for similarity lists, that physical order is
// (|sim| desc, id asc), the order the deleted per-list sort produced.
func checkRuns(t *testing.T, stats *storage.Stats, tab *catalog.Table, col string, similarity bool) runShapes {
	t.Helper()
	keys, runs := indexRuns(t, tab, col)
	total := 0
	for _, rows := range runs {
		total += len(rows)
	}
	if int64(total) != tab.Heap.NumRows() {
		t.Fatalf("%s: index holds %d rows, heap %d", tab.Name, total, tab.Heap.NumRows())
	}
	lastPage := storage.PageID(tab.Heap.NumPages() - 1)
	shapes := runShapes{keys: len(keys)}
	for x, key := range keys {
		want := runs[key]
		for y := 1; y < len(want); y++ {
			a, b := want[y-1].rid, want[y].rid
			next := b.Page == a.Page && b.Slot == a.Slot+1
			if !next && !(b.Page == a.Page+1 && b.Slot == 0) {
				t.Fatalf("%s key %d: rows %v and %v are not consecutive", tab.Name, key, a, b)
			}
			if similarity {
				pa, pb := math.Abs(want[y-1].val), math.Abs(want[y].val)
				if pa < pb || (pa == pb && want[y-1].id >= want[y].id) {
					t.Fatalf("%s key %d: list order broken at %d: %+v then %+v", tab.Name, key, y, want[y-1], want[y])
				}
			}
		}
		first, last := want[0].rid, want[len(want)-1].rid
		fetches := int64(last.Page-first.Page) + 1
		if fetches > int64(shapes.maxPages) {
			shapes.maxPages = int(fetches)
		}
		if x+1 < len(keys) {
			switch after := runs[keys[x+1]][0].rid; {
			case after.Page == last.Page:
				shapes.midPage = true
			case last.Page != lastPage:
				shapes.pageFlush = true
				fetches++
			}
		}

		var got []runRow
		stats.Reset()
		err := scanRun(tab, col, key, func(id int64, val float64) bool {
			got = append(got, runRow{id: id, val: val})
			return true
		})
		if err != nil {
			t.Fatalf("%s key %d: %v", tab.Name, key, err)
		}
		if reads, _, _ := stats.Snapshot(); reads != fetches {
			t.Fatalf("%s key %d: %d page fetches, want %d (run %v..%v)", tab.Name, key, reads, fetches, first, last)
		}
		if len(got) != len(want) {
			t.Fatalf("%s key %d: run read %d rows, index read %d", tab.Name, key, len(got), len(want))
		}
		for y := range want {
			if got[y].id != want[y].id || math.Float64bits(got[y].val) != math.Float64bits(want[y].val) {
				t.Fatalf("%s key %d row %d: run read %+v, index read %+v", tab.Name, key, y, got[y], want[y])
			}
		}
	}
	// An absent key reads nothing and is not an error.
	if err := scanRun(tab, col, math.MinInt64, func(int64, float64) bool {
		t.Fatalf("%s: row returned for an absent key", tab.Name)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n := tab.Heap.OpenSnapshots(); n != 0 {
		t.Fatalf("%s: %d snapshots left open", tab.Name, n)
	}
	return shapes
}

// TestScanRunBoundaries checks the run read on a hand-built table of the
// model tables' shape whose runs are 1 row, a few rows, several pages,
// end mid-page, and end exactly on a page's last slot.
func TestScanRunBoundaries(t *testing.T) {
	stats := &storage.Stats{}
	tab, err := catalog.New(stats, 0).CreateTable("runs", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "val", Kind: types.KindFloat},
	), -1)
	if err != nil {
		t.Fatal(err)
	}
	key, page := int64(100), storage.PageID(0)
	insert := func(n int, untilPageBreak bool) {
		for id := 0; untilPageBreak || id < n; id++ {
			rid, err := tab.Insert(types.Row{types.NewInt(key), types.NewInt(int64(id)), types.NewFloat(1 / float64(id+1))})
			if err != nil {
				t.Fatal(err)
			}
			if untilPageBreak && rid.Page != page {
				// This row opened a new page, so the previous run must
				// own every slot of the page before: give the row away.
				if err := tab.Delete(rid); err != nil {
					t.Fatal(err)
				}
				page = rid.Page
				break
			}
			page = rid.Page
		}
		key += 7
	}
	for _, n := range []int{1, 3, 1200, 2, 40} {
		insert(n, false)
	}
	insert(0, true) // ends on the last slot of its page
	for _, n := range []int{1, 900, 5} {
		insert(n, false)
	}
	if _, err := tab.CreateIndex("runs_k", "k"); err != nil {
		t.Fatal(err)
	}
	shapes := checkRuns(t, stats, tab, "k", true)
	if shapes.keys != 9 || shapes.maxPages < 3 || !shapes.midPage || !shapes.pageFlush {
		t.Fatalf("fixture lost a boundary case: %+v", shapes)
	}

	// An early stop returns without reading on.
	seen := 0
	stats.Reset()
	if err := scanRun(tab, "k", 100+2*7, func(int64, float64) bool { seen++; return seen < 2 }); err != nil || seen != 2 {
		t.Fatalf("early stop: %d rows, %v", seen, err)
	}
	if reads, _, _ := stats.Snapshot(); reads != 1 {
		t.Fatalf("early stop fetched %d pages", reads)
	}
	if n := tab.Heap.OpenSnapshots(); n != 0 {
		t.Fatalf("early stop left %d snapshots open", n)
	}
}

// hubRatings is a rating set whose models have both ordinary and extreme
// runs: a 60x40 random block gives every table runs of assorted lengths,
// and a hub entity that shares two private raters with each of 900 spokes
// (and the spokes nothing with each other) gives the untruncated
// similarity table one ~900-row run among ~900 one-row runs, at the cost
// of ~2k similarity rows instead of the ~800k a dense 900-entity set
// would need. Entities are items for item-based models, users otherwise.
func hubRatings(itemBased bool) []Rating {
	mk := func(entity, dim int64, v float64) Rating {
		if itemBased {
			return Rating{User: dim, Item: entity, Value: v}
		}
		return Rating{User: entity, Item: dim, Value: v}
	}
	var out []Rating
	rng := newDeterministicRand(7)
	for e := int64(0); e < 60; e++ {
		for d := int64(0); d < 40; d++ {
			if rng.next()%4 == 0 {
				out = append(out, mk(5000+e, 9000+d, float64(1+rng.next()%5)))
			}
		}
	}
	const hub, spokes = 1, 900
	for k := int64(0); k < spokes; k++ {
		spoke, d1, d2 := 2+k, 1000+2*k, 1001+2*k
		out = append(out,
			mk(hub, d1, float64(1+k%2)), mk(spoke, d1, 2),
			mk(hub, d2, float64(4+k%2)), mk(spoke, d2, 5))
	}
	return out
}

// TestRunReadMatchesIndexRead is the invariant that licenses reading
// model tables as clustered runs and deleting the per-list sort: for
// every key of every table of every neighbourhood algorithm, truncated
// or not, checkRuns holds on the tables Materialize wrote.
func TestRunReadMatchesIndexRead(t *testing.T) {
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF} {
		for _, size := range []int{0, 1, 10} {
			t.Run(fmt.Sprintf("%v/top%d", algo, size), func(t *testing.T) {
				model, err := BuildNeighborhood(hubRatings(algo.ItemBased()), algo, BuildOptions{NeighborhoodSize: size})
				if err != nil {
					t.Fatal(err)
				}
				stats := &storage.Stats{}
				store, err := Materialize(catalog.New(stats, 0), "m", model)
				if err != nil {
					t.Fatal(err)
				}
				uv := checkRuns(t, stats, store.UserVector, "uid", false)
				if uv.keys != len(store.UserIDs()) || !uv.midPage {
					t.Fatalf("uservector: %+v for %d users", uv, len(store.UserIDs()))
				}
				var sim runShapes
				if algo.ItemBased() {
					sim = checkRuns(t, stats, store.ItemNeighborhood, "iid", true)
				} else {
					sim = checkRuns(t, stats, store.UserNeighborhood, "uid", true)
					if iv := checkRuns(t, stats, store.ItemVector, "iid", false); iv.keys != len(store.ItemIDs()) {
						t.Fatalf("itemvector: %d runs for %d items", iv.keys, len(store.ItemIDs()))
					}
				}
				if size == 0 && (sim.maxPages < 3 || !sim.midPage) {
					t.Fatalf("untruncated similarity table has no long run: %+v", sim)
				}
				if sim.keys < 900 {
					t.Fatalf("similarity table has only %d lists", sim.keys)
				}
			})
		}
	}
}

// TestPredictItemBasedMatchesList: streaming Equation 2 over the run
// gives the bits PredictWeighted gives over the materialised list.
func TestPredictItemBasedMatchesList(t *testing.T) {
	model, err := BuildNeighborhood(hubRatings(true), ItemPearCF, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Materialize(catalog.New(nil, 0), "m", model)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range store.UserIDs()[:50] {
		rated, err := store.UserItems(u)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range store.ItemIDs()[:80] {
			list, err := store.ItemNeighbors(i)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := PredictWeighted(list, rated)
			got, gotOK, err := store.PredictItemBased(i, rated)
			if err != nil || gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("PredictItemBased(%d) for user %d = %v %v %v, list gives %v %v", i, u, got, gotOK, err, want, wantOK)
			}
		}
	}
}
