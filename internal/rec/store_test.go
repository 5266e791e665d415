package rec

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/types"
)

func newCatalogWithRatings(t *testing.T, ratings []Rating) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	cat := catalog.New(nil, 0)
	tab, err := cat.CreateTable("ratings", types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "iid", Kind: types.KindInt},
		types.Column{Name: "ratingval", Kind: types.KindFloat},
	), -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ratings {
		if _, err := tab.Insert(types.Row{types.NewInt(r.User), types.NewInt(r.Item), types.NewFloat(r.Value)}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, tab
}

// hasRelations fails the test unless s has exactly the relations named.
func hasRelations(t *testing.T, s *ModelStore, want ...string) {
	t.Helper()
	for _, suffix := range modelTables {
		if got := s.relation(suffix) != nil; got != slices.Contains(want, suffix) {
			t.Fatalf("%v store: has %s = %v, want relations %v", s.Algo, suffix, got, want)
		}
	}
}

// predictsAsReference fails the test unless s predicts every (user, item)
// pair of its model as refPredict does, bit for bit.
func predictsAsReference(t *testing.T, s *ModelStore, ratings []Rating) {
	t.Helper()
	byUser, byItem := ratingMaps(ratings)
	for _, u := range s.UserIDs() {
		for _, i := range s.ItemIDs() {
			want, wantOK := refPredict(s, byUser, byItem, u, i)
			got, gotOK := s.Predict(u, i)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v Predict(%d,%d) = %v,%v, reference %v,%v", s.Algo, u, i, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestMaterializeItemCF(t *testing.T) {
	store := mustBuild(t, paperRatings(), ItemCosCF, BuildOptions{})
	hasRelations(t, store, "uservector", "itemneighborhood")
	predictsAsReference(t, store, paperRatings())
}

func TestStoreAccessors(t *testing.T) {
	store := mustBuild(t, paperRatings(), ItemCosCF, BuildOptions{})
	items := store.UserItems(2)
	if r, _ := ValueOf(items, 1); len(items) != 3 || r != 4.5 {
		t.Fatalf("UserItems(2) = %v", items)
	}
	// Item 1 is co-rated with items 2 and 3; its list is ascending in id.
	if neigh := store.ItemNeighbors(1); len(neigh) != 2 || neigh[0].ID != 2 || neigh[1].ID != 3 {
		t.Fatalf("ItemNeighbors(1) = %v", neigh)
	}
	if v, found := store.Seen(2, 1); !found || v != 4.5 {
		t.Fatalf("Seen(2,1) = %v %v", v, found)
	}
	if _, found := store.Seen(1, 3); found {
		t.Fatal("Seen(1,3) should be false")
	}
	if got := store.UserIDs(); len(got) != 4 {
		t.Fatalf("UserIDs: %v", got)
	}
	if got := store.ItemIDs(); len(got) != 3 {
		t.Fatalf("ItemIDs: %v", got)
	}
}

func TestMaterializeUserCF(t *testing.T) {
	store := mustBuild(t, paperRatings(), UserPearCF, BuildOptions{})
	hasRelations(t, store, "uservector", "userneighborhood", "itemvector")
	if raters := store.ItemRaters(2); len(raters) != 3 {
		t.Fatalf("ItemRaters(2) = %v", raters)
	}
	predictsAsReference(t, store, paperRatings())
}

func TestMaterializeSVD(t *testing.T) {
	store := mustBuild(t, paperRatings(), SVD, BuildOptions{SVDSeed: 1})
	hasRelations(t, store, "uservector", "userfactor", "itemfactor")
	factors := BuildOptions{}.withDefaults().SVDFactors
	for _, u := range store.UserIDs() {
		if vec := store.UserFactors(u); len(vec) != factors {
			t.Fatalf("UserFactors(%d) has %d factors, want %d", u, len(vec), factors)
		}
	}
	predictsAsReference(t, store, paperRatings())
	// Unknown ids yield no prediction.
	if _, ok := store.Predict(99, 1); ok {
		t.Fatal("unknown user predicted")
	}
}

// TestMaterializeReplacesAndDrop: a recommender's relations are served by
// name from its current model, a rebuild's model replaces them, and DROP
// RECOMMENDER removes them.
func TestMaterializeReplacesAndDrop(t *testing.T) {
	cat, src := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	if _, err := m.Create("r", "ratings", "uid", "iid", "ratingval", "ItemCosCF"); err != nil {
		t.Fatal(err)
	}
	rows := func(name string) int64 {
		t.Helper()
		rel, ok := m.Relation(name)
		if !ok {
			t.Fatalf("no relation %s", name)
		}
		return rel.Len()
	}
	before := rows("_REC_R_UserVector")
	if _, err := src.Insert(types.Row{types.NewInt(9), types.NewInt(1), types.NewFloat(2)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Rebuild("r"); err != nil {
		t.Fatal(err)
	}
	if after := rows("_rec_r_uservector"); after != before+1 {
		t.Fatalf("uservector has %d rows after the rebuild, had %d", after, before)
	}
	if _, ok := m.Relation("_rec_r_userfactor"); ok {
		t.Fatal("an ItemCosCF model has a userfactor relation")
	}
	if err := m.Drop("r"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"_rec_r_uservector", "_rec_r_itemneighborhood"} {
		if _, ok := m.Relation(name); ok {
			t.Fatalf("DROP RECOMMENDER left %s behind", name)
		}
	}
}

// parseVec reads encodeVec's text back.
func parseVec(t *testing.T, s string) []float64 {
	t.Helper()
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			t.Fatalf("factor text %q: %v", s, err)
		}
		out[i] = f
	}
	return out
}

func TestVecEncoding(t *testing.T) {
	for _, v := range [][]float64{nil, {}, {1.5}, {-0.25, 3, 1e-9, math.Pi, math.Nextafter(1, 2)}} {
		if d := sameVec(parseVec(t, encodeVec(v)), v); d != "" {
			t.Fatalf("round trip %v: %s", v, d)
		}
	}
	if got := encodeVec([]float64{-0.25, 3}); got != "-0.25,3" {
		t.Fatalf("encodeVec = %q", got)
	}
}

// hubRatings is a rating set whose models have both ordinary and extreme
// lists: a 60x40 random block gives every list an assorted length, and a
// hub entity that shares two private raters with each of 900 spokes (and
// the spokes nothing with each other) gives the untruncated model one
// ~900-entry list among ~900 one-entry lists, at the cost of ~2k
// similarity entries instead of the ~800k a dense 900-entity set would
// need. Entities are items for item-based models, users otherwise.
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

// TestPredictItemBasedMatchesList: Equation 2 through the store gives the
// bits the reference adds over the model's list in ascending id.
func TestPredictItemBasedMatchesList(t *testing.T) {
	ratings := hubRatings(true)
	store := mustBuild(t, ratings, ItemPearCF, BuildOptions{})
	byUser, _ := ratingMaps(ratings)
	for _, u := range store.UserIDs()[:50] {
		rated := store.UserItems(u)
		for _, i := range store.ItemIDs()[:80] {
			want, wantOK := equation2(store.ItemNeighbors(i), byUser[u], ascendingID)
			got, gotOK := store.PredictItemBased(i, rated)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("PredictItemBased(%d) for user %d = %v %v, list gives %v %v", i, u, got, gotOK, want, wantOK)
			}
		}
	}
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

// TestDecodedRunsUnderRebuild races reads of the same similarity lists,
// or of the same factor vectors (SVD), against each other and against
// rebuilds that publish new stores: every read, of whichever store a
// reader took, equals that store's relation rows for the key. Run it
// under -race.
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

// readEveryKey reads every item's similarity list of s (item-based) or
// every user's and item's factor vector (SVD) and holds each to the rows
// s's relation produces for the key.
func readEveryKey(s *ModelStore) error {
	if s.Algo == SVD {
		for _, side := range []struct {
			suffix string
			read   func(int64) []float64
		}{{"userfactor", s.UserFactors}, {"itemfactor", s.ItemFactors}} {
			rel := s.relation(side.suffix)
			for p, id := range rel.keys {
				if got, want := encodeVec(side.read(id)), rel.Rows(p)[0][1].Text(); got != want {
					return fmt.Errorf("%s key %d: %s, relation %s", side.suffix, id, got, want)
				}
			}
		}
		return nil
	}
	rel := s.relation("itemneighborhood")
	for p, i := range rel.keys {
		var want []Neighbor
		for _, row := range rel.Rows(p) {
			want = append(want, Neighbor{ID: row[1].Int(), Sim: row[2].Float()})
		}
		if d := sameRun(s.ItemNeighbors(i), want); d != "" {
			return fmt.Errorf("item %d: %s", i, d)
		}
	}
	return nil
}

// TestAppendToDecodedRunCopies: a returned list has no spare capacity, so
// a caller's append copies it and leaves the shared list as it was.
func TestAppendToDecodedRunCopies(t *testing.T) {
	store := mustBuild(t, hubRatings(true), ItemCosCF, BuildOptions{})
	for _, i := range store.ItemIDs()[:20] {
		run := store.ItemNeighbors(i)
		want := append([]Neighbor(nil), run...)
		grown := append(run, Neighbor{ID: -1, Sim: 7})
		grown[0] = Neighbor{ID: -2, Sim: 8}
		if d := sameRun(store.ItemNeighbors(i), want); d != "" {
			t.Fatalf("item %d: the shared list changed under an append: %s", i, d)
		}
	}
}
