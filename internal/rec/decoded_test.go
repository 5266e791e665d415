package rec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// freshRun reads key's run of tab straight through a runReader, the
// oracle the decoded runs are held to.
func freshRun(t *testing.T, tab *catalog.Table, dir runDir, key int64) []Neighbor {
	t.Helper()
	var out []Neighbor
	rr := dir.read(tab, key)
	for rr.Next() {
		id, val := rr.Row()
		out = append(out, Neighbor{ID: id, Sim: val})
	}
	if err := rr.Close(); err != nil {
		t.Fatalf("%s key %d: %v", tab.Name, key, err)
	}
	return out
}

// sameRun reports the first difference between two runs, by id and by
// math.Float64bits of the value, or "" when there is none.
func sameRun(got, want []Neighbor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for y := range want {
		if got[y].ID != want[y].ID || math.Float64bits(got[y].Sim) != math.Float64bits(want[y].Sim) {
			return fmt.Sprintf("row %d is %+v, want %+v", y, got[y], want[y])
		}
	}
	return ""
}

// checkDecoded holds every key's decoded run of tab — on its first read,
// which decodes and publishes it, and on a second, which must fetch no
// page and return the published rows — to a fresh runReader read, and
// checks that each published run has no spare capacity. It returns the
// number of rows checked.
func checkDecoded(t *testing.T, stats *storage.Stats, tab *catalog.Table, dir runDir) int {
	t.Helper()
	rows := 0
	for _, key := range dir.keys {
		want := freshRun(t, tab, dir, key)
		first, err := dir.rows(tab, key)
		if err != nil {
			t.Fatalf("%s key %d: first read: %v", tab.Name, key, err)
		}
		stats.Reset()
		second, err := dir.rows(tab, key)
		if err != nil {
			t.Fatalf("%s key %d: second read: %v", tab.Name, key, err)
		}
		if reads, _, _ := stats.Snapshot(); reads != 0 {
			t.Fatalf("%s key %d: second read fetched %d pages", tab.Name, key, reads)
		}
		for name, got := range map[string][]Neighbor{"first": first, "second": second} {
			if d := sameRun(got, want); d != "" {
				t.Fatalf("%s key %d: %s read: %s", tab.Name, key, name, d)
			}
			if len(got) != cap(got) {
				t.Fatalf("%s key %d: %s read has len %d, cap %d", tab.Name, key, name, len(got), cap(got))
			}
		}
		if len(second) > 0 && &second[0] != &first[0] {
			t.Fatalf("%s key %d: second read did not return the published run", tab.Name, key)
		}
		rows += len(want)
	}
	if got, err := dir.rows(tab, math.MinInt64); err != nil || len(got) != 0 {
		t.Fatalf("%s: absent key read %v, %v", tab.Name, got, err)
	}
	if n := tab.Heap.OpenSnapshots(); n != 0 {
		t.Fatalf("%s: %d snapshots left open", tab.Name, n)
	}
	return rows
}

// TestDecodedRunsMatchRunReader: over every key of every run-keyed table
// — ItemCosCF with whole and truncated lists, UserCosCF, and SVD's
// uservector — the decoded run equals a fresh runReader read of the same
// table in order, with the same ids and the same bits, read first or
// read again.
func TestDecodedRunsMatchRunReader(t *testing.T) {
	for _, tc := range []struct {
		algo Algorithm
		size int
	}{{ItemCosCF, 0}, {ItemCosCF, 10}, {UserCosCF, 0}, {SVD, 0}} {
		t.Run(fmt.Sprintf("%v/top%d", tc.algo, tc.size), func(t *testing.T) {
			model, err := Build(hubRatings(tc.algo != UserCosCF), tc.algo, BuildOptions{NeighborhoodSize: tc.size, SVDSeed: 1})
			if err != nil {
				t.Fatal(err)
			}
			stats := &storage.Stats{}
			store, err := Materialize(catalog.New(stats, 0), "m", model)
			if err != nil {
				t.Fatal(err)
			}
			tables := 0
			for _, tb := range []struct {
				tab *catalog.Table
				dir runDir
			}{
				{store.UserVector, store.userVectorRuns},
				{store.ItemNeighborhood, store.itemNeighborRuns},
				{store.UserNeighborhood, store.userNeighborRuns},
				{store.ItemVector, store.itemVectorRuns},
			} {
				if tb.tab == nil {
					continue
				}
				tables++
				if n := checkDecoded(t, stats, tb.tab, tb.dir); int64(n) != tb.tab.Heap.NumRows() {
					t.Fatalf("%s: decoded %d rows of %d", tb.tab.Name, n, tb.tab.Heap.NumRows())
				}
			}
			if want := map[Algorithm]int{ItemCosCF: 2, UserCosCF: 3, SVD: 1}[tc.algo]; tables != want {
				t.Fatalf("%d run-keyed tables, want %d", tables, want)
			}
		})
	}
}

// TestDecodedRunKeepsNoForeignTuple: a foreign tuple planted in a run
// before its first read fails that read with a *RunError, publishes
// nothing, and so fails the second read the same way.
func TestDecodedRunKeepsNoForeignTuple(t *testing.T) {
	model, err := BuildNeighborhood(hubRatings(true), ItemCosCF, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Materialize(catalog.New(nil, 0), "m", model)
	if err != nil {
		t.Fatal(err)
	}
	const hub = 1
	tab := store.ItemNeighborhood
	_, runs := heapRuns(t, tab)
	rid := runs[hub][len(runs[hub])/2].rid
	row, err := tab.Heap.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if at, err := tab.Heap.Update(rid, types.Row{row[0], row[1], types.Null()}); err != nil || at != rid {
		t.Fatalf("update moved %v to %v: %v", rid, at, err)
	}
	for _, read := range []string{"first", "second"} {
		got, err := store.ItemNeighbors(hub)
		var re *RunError
		if !errors.As(err, &re) || re.Table != tab.Name || re.Key != hub || got != nil {
			t.Fatalf("%s read: %d rows, %v; want a *RunError", read, len(got), err)
		}
	}
	p, _ := slices.BinarySearch(store.itemNeighborRuns.keys, hub)
	if store.itemNeighborRuns.decoded[p].Load() != nil {
		t.Fatal("a failed read published a run")
	}
}

// TestDecodedRunsUnderRebuild races first reads of the same runs, or of
// the same factor vectors (SVD), against each other and against rebuilds
// that swap the recommender's store: every read, of whichever store a
// reader took, equals a fresh decode of that store's table. Run it under
// -race.
func TestDecodedRunsUnderRebuild(t *testing.T) {
	for _, algo := range []string{"ItemCosCF", "SVD"} {
		t.Run(algo, func(t *testing.T) {
			ratings := hubRatings(true)
			cat, _ := newCatalogWithRatings(t, ratings)
			m := NewManager(cat, Options{})
			r, err := m.Create("m", "ratings", "uid", "iid", "ratingval", algo)
			if err != nil {
				t.Fatal(err)
			}
			const readers, rebuilds = 4, 3
			var wg sync.WaitGroup
			errs := make(chan error, readers+1)
			start := make(chan struct{})
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for pass := 0; pass < rebuilds; pass++ {
						if err := readEveryKey(r.Store()); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < rebuilds; k++ {
					if err := m.Rebuild("m"); err != nil {
						errs <- err
						return
					}
				}
			}()
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if r.Rebuilds() != rebuilds {
				t.Fatalf("%d rebuilds, want %d", r.Rebuilds(), rebuilds)
			}
		})
	}
}

// readEveryKey reads every item's similarity run of s (item-based) or
// every user's and item's factor vector (SVD) and holds each to a fresh
// decode of s's table.
func readEveryKey(s *ModelStore) error {
	if s.Algo == SVD {
		for _, side := range factorSides(s) {
			for _, id := range side.ids {
				got, err := side.read(id)
				if err != nil {
					return err
				}
				want, err := tableVec(side.tab, id)
				if err != nil {
					return err
				}
				if d := sameVec(got, want); d != "" {
					return fmt.Errorf("%s key %d: %s", side.tab.Name, id, d)
				}
			}
		}
		return nil
	}
	for _, i := range s.ItemIDs() {
		got, err := s.ItemNeighbors(i)
		if err != nil {
			return err
		}
		want, err := s.itemNeighborRuns.decode(s.ItemNeighborhood, i)
		if err != nil {
			return err
		}
		if d := sameRun(got, want); d != "" {
			return fmt.Errorf("item %d: %s", i, d)
		}
	}
	return nil
}

// factorSide is one factor table of an SVD store, its keys and the store's
// accessor for it.
type factorSide struct {
	tab  *catalog.Table
	ids  []int64
	read func(int64) ([]float64, error)
}

func factorSides(s *ModelStore) []factorSide {
	return []factorSide{
		{s.UserFactor, s.UserIDs(), s.UserFactors},
		{s.ItemFactor, s.ItemIDs(), s.ItemFactors},
	}
}

// tableVec decodes id's factor vector from its row, looked up by primary
// key: the oracle the decoded vectors are held to.
func tableVec(tab *catalog.Table, id int64) ([]float64, error) {
	row, _, found, err := tab.LookupPK(types.NewInt(id))
	if err != nil || !found {
		return nil, fmt.Errorf("%s key %d: found %v, %v", tab.Name, id, found, err)
	}
	return decodeVec(row[1].Text())
}

// sameVec reports the first difference between two vectors, by
// math.Float64bits, or "" when there is none.
func sameVec(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d factors, want %d", len(got), len(want))
	}
	for f := range want {
		if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
			return fmt.Sprintf("factor %d is %v, want %v", f, got[f], want[f])
		}
	}
	return ""
}

// TestDecodedFactorsMatchTable: every user's and item's factor vector,
// read first or again, equals decodeVec of its row by primary key, bit for
// bit; the second read fetches no page and returns the published vector,
// and a key the model does not know has none.
func TestDecodedFactorsMatchTable(t *testing.T) {
	model, err := TrainSVD(hubRatings(true), BuildOptions{SVDSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats := &storage.Stats{}
	store, err := Materialize(catalog.New(stats, 0), "m", model)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range factorSides(store) {
		for _, id := range side.ids {
			want, err := tableVec(side.tab, id)
			if err != nil {
				t.Fatal(err)
			}
			first, err := side.read(id)
			if err != nil {
				t.Fatalf("%s key %d: first read: %v", side.tab.Name, id, err)
			}
			stats.Reset()
			second, err := side.read(id)
			if err != nil {
				t.Fatalf("%s key %d: second read: %v", side.tab.Name, id, err)
			}
			if reads, _, _ := stats.Snapshot(); reads != 0 {
				t.Fatalf("%s key %d: second read fetched %d pages", side.tab.Name, id, reads)
			}
			for name, got := range map[string][]float64{"first": first, "second": second} {
				if d := sameVec(got, want); d != "" || len(got) != model.K {
					t.Fatalf("%s key %d: %s read: %s (%d factors)", side.tab.Name, id, name, d, len(got))
				}
			}
			if &second[0] != &first[0] {
				t.Fatalf("%s key %d: second read did not return the published vector", side.tab.Name, id)
			}
		}
		if got, err := side.read(math.MinInt64); err != nil || got != nil {
			t.Fatalf("%s: absent key read %v, %v", side.tab.Name, got, err)
		}
	}
}

// TestDecodedFactorKeepsNoMalformedRow: a malformed itemfactor row,
// planted below SQL before its first read, fails that read, publishes
// nothing, and so fails every later read — and the Scorer's — with the
// same error.
func TestDecodedFactorKeepsNoMalformedRow(t *testing.T) {
	model, err := TrainSVD(hubRatings(true), BuildOptions{SVDSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Materialize(catalog.New(nil, 0), "m", model)
	if err != nil {
		t.Fatal(err)
	}
	item := store.ItemIDs()[3]
	tab := store.ItemFactor
	row, rid, found, err := tab.LookupPK(types.NewInt(item))
	if err != nil || !found {
		t.Fatalf("item %d: found %v, %v", item, found, err)
	}
	if _, err := tab.Update(rid, types.Row{row[0], types.NewText("0.25,not-a-number")}); err != nil {
		t.Fatal(err)
	}
	var first error
	for read := 0; read < 3; read++ {
		vec, err := store.ItemFactors(item)
		if err == nil || vec != nil {
			t.Fatalf("read %d: %v, %v; want an error", read, vec, err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("read %d failed with %q, the first with %q", read, err, first)
		}
	}
	p, _ := slices.BinarySearch(store.itemVecs.keys, item)
	if store.itemVecs.decoded[p].Load() != nil {
		t.Fatal("a failed read published a vector")
	}
	sc := store.Scorer(1)
	if err := sc.ForUser(store.UserIDs()[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Score(item); err == nil || err.Error() != first.Error() {
		t.Fatalf("Score(%d) = %v, want %q", item, err, first)
	}
	if _, err := store.ItemFactors(store.ItemIDs()[4]); err != nil {
		t.Fatalf("another item's vector: %v", err)
	}
}

// TestAppendToDecodedRunCopies: a returned run has no spare capacity, so
// a caller's append copies it and leaves the shared run as it was.
func TestAppendToDecodedRunCopies(t *testing.T) {
	model, err := BuildNeighborhood(hubRatings(true), ItemCosCF, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := Materialize(catalog.New(nil, 0), "m", model)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range store.ItemIDs()[:20] {
		run, err := store.ItemNeighbors(i)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]Neighbor(nil), run...)
		grown := append(run, Neighbor{ID: -1, Sim: 7})
		grown[0] = Neighbor{ID: -2, Sim: 8}
		again, err := store.ItemNeighbors(i)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameRun(again, want); d != "" {
			t.Fatalf("item %d: the shared run changed under an append: %s", i, d)
		}
	}
}
