package rec

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// heapRuns is the oracle: it reads the whole table in physical order, one
// decoded Row per tuple, and groups the rows by key — the first column —
// in order of first appearance, failing if a key's rows are not one
// contiguous stretch of the heap.
func heapRuns(t *testing.T, tab *catalog.Table) (keys []int64, runs map[int64][]runRow) {
	t.Helper()
	runs = make(map[int64][]runRow)
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		row, rid, ok, err := it.Next()
		if err != nil {
			t.Fatalf("%s: heap scan: %v", tab.Name, err)
		}
		if !ok {
			return keys, runs
		}
		k := row[0].Int()
		if _, seen := runs[k]; !seen {
			keys = append(keys, k)
		} else if keys[len(keys)-1] != k {
			t.Fatalf("%s: key %d's rows are not one run (again at %v)", tab.Name, k, rid)
		}
		runs[k] = append(runs[k], runRow{rid, row[1].Int(), row[2].Float()})
	}
}

// checkDirectory asserts that dir points every key at its first row in
// heap order, has no run for a key with no rows and misses no key that has
// some; it returns the oracle's runs.
func checkDirectory(t *testing.T, tab *catalog.Table, dir runDir) (keys []int64, runs map[int64][]runRow) {
	t.Helper()
	keys, runs = heapRuns(t, tab)
	for p, key := range dir.keys {
		rows, ok := runs[key]
		if first := dir.first[p]; ok && first != rows[0].rid || !ok && first != noRun {
			t.Fatalf("%s key %d: directory says %v", tab.Name, key, first)
		}
	}
	for _, key := range keys {
		if _, ok := slices.BinarySearch(dir.keys, key); !ok {
			t.Fatalf("%s: key %d has a run and no directory entry", tab.Name, key)
		}
	}
	return keys, runs
}

// checkRuns asserts, for every key of tab, that the run directory is
// right (checkDirectory); that the clustered-run read through it returns
// exactly the key's rows the full heap scan finds, in the same order;
// that those rows are
// physically consecutive, so the run read — which starts at the first row
// and stops at the first row of another key — cannot skip or add one; that
// the read fetches each page of the run once — plus the next page only
// when the run fills its last page, since the key boundary is then the
// first tuple over the page break; and, for similarity lists, that
// physical order is ascending id, the order every path adds Equation 2 in.
func checkRuns(t *testing.T, stats *storage.Stats, tab *catalog.Table, dir runDir, similarity bool) runShapes {
	t.Helper()
	keys, runs := checkDirectory(t, tab, dir)
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
				if want[y-1].id >= want[y].id {
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
		rr := dir.read(tab, key)
		for rr.Next() {
			id, val := rr.Row()
			got = append(got, runRow{id: id, val: val})
		}
		if err := rr.Close(); err != nil {
			t.Fatalf("%s key %d: %v", tab.Name, key, err)
		}
		if reads, _, _ := stats.Snapshot(); reads != fetches {
			t.Fatalf("%s key %d: %d page fetches, want %d (run %v..%v)", tab.Name, key, reads, fetches, first, last)
		}
		if len(got) != len(want) {
			t.Fatalf("%s key %d: run read %d rows, heap scan %d", tab.Name, key, len(got), len(want))
		}
		for y := range want {
			if got[y].id != want[y].id || math.Float64bits(got[y].val) != math.Float64bits(want[y].val) {
				t.Fatalf("%s key %d row %d: run read %+v, heap scan %+v", tab.Name, key, y, got[y], want[y])
			}
		}
	}
	// An absent key reads nothing and is not an error.
	rr := dir.read(tab, math.MinInt64)
	if rr.Next() {
		t.Fatalf("%s: row returned for an absent key", tab.Name)
	}
	if err := rr.Close(); err != nil {
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
	// The directory Materialize would keep, from the oracle, plus a key
	// past the last run that has none.
	keys, runs := heapRuns(t, tab)
	dir := runDir{perKey: newPerKey[[]Neighbor](append(keys, key))}
	for _, k := range keys {
		dir.first = append(dir.first, runs[k][0].rid)
	}
	dir.first = append(dir.first, noRun)
	shapes := checkRuns(t, stats, tab, dir, true)
	if shapes.keys != 9 || shapes.maxPages < 3 || !shapes.midPage || !shapes.pageFlush {
		t.Fatalf("fixture lost a boundary case: %+v", shapes)
	}

	// An early stop returns without reading on.
	seen := 0
	stats.Reset()
	rr := dir.read(tab, 100+2*7)
	for seen < 2 && rr.Next() {
		seen++
	}
	if err := rr.Close(); err != nil || seen != 2 {
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
// model tables as clustered runs through a run directory, with no index
// and no per-list sort: for every key of every table of every
// neighbourhood algorithm, truncated or not, checkRuns holds on the tables
// Materialize wrote and the directories it kept.
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
				uv := checkRuns(t, stats, store.UserVector, store.userVectorRuns, false)
				if uv.keys != len(store.UserIDs()) || !uv.midPage {
					t.Fatalf("uservector: %+v for %d users", uv, len(store.UserIDs()))
				}
				var sim runShapes
				if algo.ItemBased() {
					sim = checkRuns(t, stats, store.ItemNeighborhood, store.itemNeighborRuns, true)
				} else {
					sim = checkRuns(t, stats, store.UserNeighborhood, store.userNeighborRuns, true)
					if iv := checkRuns(t, stats, store.ItemVector, store.itemVectorRuns, false); iv.keys != len(store.ItemIDs()) {
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

// TestRunDirectoryFollowsKeys: a run-keyed load points each key at its
// first row, has no run for a key without rows, and refuses rows whose keys
// leave the runs out of order or are not model ids.
func TestRunDirectoryFollowsKeys(t *testing.T) {
	load := func(keys ...int64) (*catalog.Table, runDir, error) {
		ml := &modelLoad{cat: catalog.New(nil, 0), prefix: "t_"}
		tl := ml.startRuns("runs", []int64{1, 2, 3, 5}, len(keys), intCol("k"), intCol("id"), floatCol("v"))
		for i, k := range keys {
			tl.add(types.NewInt(k), types.NewInt(int64(i)), types.NewFloat(0))
		}
		return tl.finish()
	}
	tab, dir, err := load(1, 1, 3, 5, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkDirectory(t, tab, dir)
	if dir.first[1] != noRun {
		t.Fatalf("key 2 has no rows but a run at %v", dir.first[1])
	}
	for _, keys := range [][]int64{{1, 3, 1}, {1, 4}, {2, 1}, {5, 6}} {
		if _, _, err := load(keys...); err == nil {
			t.Errorf("rows keyed %v loaded", keys)
		}
	}
}

// TestForeignRunTupleIsAnError: a tuple inside a run that is not the
// (key, id, value) row Materialize writes — a row of another shape, or
// one cut short — fails the read of that run with a *RunError naming the
// table, whether UserItems, the user-driven side or the item-driven side
// reads it; none of them takes the rows before it for the whole run, and
// none leaves a snapshot open.
func TestForeignRunTupleIsAnError(t *testing.T) {
	plants := map[string]func(t *testing.T, tab *catalog.Table, rid storage.RID){
		"wrong shape": func(t *testing.T, tab *catalog.Table, rid storage.RID) {
			row, err := tab.Heap.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			// Shorter than the row it replaces, so it stays in place.
			at, err := tab.Heap.Update(rid, types.Row{row[0], row[1], types.Null()})
			if err != nil || at != rid {
				t.Fatalf("update moved %v to %v: %v", rid, at, err)
			}
		},
		"cut short": func(t *testing.T, tab *catalog.Table, rid storage.RID) {
			pool := tab.Heap.Pool()
			buf, err := pool.Fetch(rid.Page)
			if err != nil {
				t.Fatal(err)
			}
			tuple, ok := storage.AsPage(buf).Get(rid.Slot)
			if !ok {
				t.Fatalf("no tuple at %v", rid)
			}
			tuple[0] = 4 // the header declares a fourth value the bytes do not hold
			pool.Unpin(rid.Page, true)
		},
	}
	// plantMid plants a foreign tuple halfway through key's run of tab.
	plantMid := func(t *testing.T, plant func(*testing.T, *catalog.Table, storage.RID), tab *catalog.Table, key int64) {
		t.Helper()
		_, runs := heapRuns(t, tab)
		run := runs[key]
		if len(run) < 3 {
			t.Fatalf("%s key %d: a %d-row run has no middle", tab.Name, key, len(run))
		}
		plant(t, tab, run[len(run)/2].rid)
	}
	checkErr := func(t *testing.T, what string, tab *catalog.Table, err error) {
		t.Helper()
		var re *RunError
		if !errors.As(err, &re) || re.Table != tab.Name || !errors.Is(err, types.ErrRunRow) {
			t.Fatalf("%s: got %v, want a *RunError naming %s", what, err, tab.Name)
		}
		if n := tab.Heap.OpenSnapshots(); n != 0 {
			t.Fatalf("%s: %d snapshots left open", what, n)
		}
	}
	// In hubRatings(true), user 1000 rated the hub item 1, whose run is
	// ~900 rows, and one spoke; user 9000 rated a dozen block items.
	const hub, hubRater, blockRater = 1, 1000, 9000
	for name, plant := range plants {
		t.Run(name, func(t *testing.T) {
			model, err := BuildNeighborhood(hubRatings(true), ItemCosCF, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			store, err := Materialize(catalog.New(nil, 0), "m", model)
			if err != nil {
				t.Fatal(err)
			}
			rated, err := store.UserItems(hubRater)
			if err != nil || len(rated) != 2 {
				t.Fatalf("user %d rated %v, %v", hubRater, rated, err)
			}

			plantMid(t, plant, store.UserVector, blockRater)
			_, err = store.UserItems(blockRater)
			checkErr(t, "UserItems", store.UserVector, err)

			plantMid(t, plant, store.ItemNeighborhood, hub)
			sc := store.Scorer(len(store.ItemIDs()))
			err = sc.ForUser(hubRater)
			checkErr(t, "user-driven ForUser", store.ItemNeighborhood, err)
			if !sc.UserDriven() {
				t.Fatal("ForUser did not take the user-driven side")
			}
			_, _, err = store.PredictItemBased(hub, rated)
			checkErr(t, "item-driven PredictItemBased", store.ItemNeighborhood, err)
			_, err = store.ItemNeighbors(hub)
			checkErr(t, "ItemNeighbors", store.ItemNeighborhood, err)
		})
	}
}
