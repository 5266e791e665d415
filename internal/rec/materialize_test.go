package rec

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"recdb/internal/types"
)

// perRowRelations is the reference for a model's relations, kept for the
// differential below: each relation's rows built one at a time, in key
// order, each key's rows in ascending id — the rating relations from the
// input ratings (a repeated pair keeps its last value), the others from
// the model's lists, factors and scores.
func perRowRelations(ratings []Rating, s *ModelStore) map[string][]types.Row {
	out := map[string][]types.Row{}
	add := func(name string, row ...types.Value) { out[name] = append(out[name], row) }
	last := map[[2]int64]float64{}
	for _, r := range ratings {
		last[[2]int64{r.User, r.Item}] = r.Value
	}
	var pairs [][2]int64
	for p := range last {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	for _, p := range pairs {
		add("uservector", types.NewInt(p[0]), types.NewInt(p[1]), types.NewFloat(last[p]))
	}
	switch {
	case s.Algo.ItemBased():
		for _, i := range s.ItemIDs() {
			for _, n := range s.ItemNeighbors(i) {
				add("itemneighborhood", types.NewInt(i), types.NewInt(n.ID), types.NewFloat(n.Sim))
			}
		}
	case s.Algo.UserBased():
		for _, u := range s.UserIDs() {
			for _, n := range s.UserNeighbors(u) {
				add("userneighborhood", types.NewInt(u), types.NewInt(n.ID), types.NewFloat(n.Sim))
			}
		}
		slices.SortFunc(pairs, func(a, b [2]int64) int { return cmp.Or(cmp.Compare(a[1], b[1]), cmp.Compare(a[0], b[0])) })
		for _, p := range pairs {
			add("itemvector", types.NewInt(p[1]), types.NewInt(p[0]), types.NewFloat(last[p]))
		}
	case s.Algo == SVD:
		for _, u := range s.UserIDs() {
			add("userfactor", types.NewInt(u), types.NewText(encodeVec(s.userVecs[u])))
		}
		for _, i := range s.ItemIDs() {
			add("itemfactor", types.NewInt(i), types.NewText(encodeVec(s.itemVecs[i])))
		}
	case s.Algo == Popularity:
		for _, i := range s.ItemIDs() {
			add("itemscore", types.NewInt(i), types.NewFloat(s.scores[i]))
		}
	}
	return out
}

// relationSchemas are the relations' columns, as the model tables had them.
var relationSchemas = map[string]*types.Schema{
	"uservector":       types.NewSchema(intCol("uid"), intCol("iid"), floatCol("ratingval")),
	"itemneighborhood": types.NewSchema(intCol("iid"), intCol("niid"), floatCol("sim")),
	"userneighborhood": types.NewSchema(intCol("uid"), intCol("nuid"), floatCol("sim")),
	"itemvector":       types.NewSchema(intCol("iid"), intCol("uid"), floatCol("ratingval")),
	"userfactor":       types.NewSchema(intCol("uid"), textCol("features")),
	"itemfactor":       types.NewSchema(intCol("iid"), textCol("features")),
	"itemscore":        types.NewSchema(intCol("iid"), floatCol("score")),
}

// sameRow reports whether two rows hold the same values, floats compared
// by math.Float64bits.
func sameRow(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if a[c].Kind() != b[c].Kind() {
			return false
		}
		if a[c].Kind() == types.KindFloat {
			if math.Float64bits(a[c].Float()) != math.Float64bits(b[c].Float()) {
				return false
			}
		} else if a[c].String() != b[c].String() {
			return false
		}
	}
	return true
}

// TestMaterializeMatchesPerRow is the relation differential: for every
// algorithm, each relation of the store Build makes — its schema, its row
// count, and its rows in order, key by key — equals the per-row
// reference's, value by value, and the store has no relation the reference
// lacks. (Each subtest keeps the name it had when the build took a
// similarity-list cap and this ran with and without one.)
func TestMaterializeMatchesPerRow(t *testing.T) {
	ratings := benchRatings(90, 140, 0.12)
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD, Popularity} {
		t.Run(fmt.Sprintf("%v/neighborhood=0", algo), func(t *testing.T) {
			store := mustBuild(t, ratings, algo, BuildOptions{SVDSeed: 1, SVDEpochs: 3})
			ref := perRowRelations(ratings, store)
			for _, suffix := range modelTables {
				want, wantOK := ref[suffix]
				rel := store.relation(suffix)
				if (rel != nil) != wantOK {
					t.Fatalf("%s: store has it %v, reference %v", suffix, rel != nil, wantOK)
				}
				if rel == nil {
					continue
				}
				if !reflect.DeepEqual(rel.Schema, relationSchemas[suffix]) {
					t.Fatalf("%s: schema %v", suffix, rel.Schema)
				}
				var got []types.Row
				for p := 0; p < rel.Keys(); p++ {
					got = append(got, rel.Rows(p)...)
				}
				if rel.Len() != int64(len(want)) || len(got) != len(want) {
					t.Fatalf("%s: Len %d, %d rows, reference %d", suffix, rel.Len(), len(got), len(want))
				}
				for x := range want {
					if !sameRow(got[x], want[x]) {
						t.Fatalf("%s row %d: %v, reference %v", suffix, x, got[x], want[x])
					}
				}
			}
		})
	}
}

// TestRebuildPublishesWholeModels hammers by-name reads of a recommender's
// relations while it is rebuilt over a growing source table. A reader must
// always find each relation, and find it whole: uservector holds one row
// per source rating as of some build, so anything below the first build's
// count is a relation caught missing, empty or half made.
func TestRebuildPublishesWholeModels(t *testing.T) {
	ratings := benchRatings(40, 60, 0.2)
	cat, src := newCatalogWithRatings(t, ratings)
	m := NewManager(cat, Options{})
	if _, err := m.Create("Live", "ratings", "uid", "iid", "ratingval", "ItemCosCF"); err != nil {
		t.Fatal(err)
	}
	const rebuilds = 25
	floor := int64(len(ratings))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"_rec_live_uservector", "_rec_live_itemneighborhood"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				rel, ok := m.Relation(name)
				if !ok {
					t.Errorf("by-name read of %s during a rebuild found nothing", name)
					return
				}
				n := rel.Len()
				if n < floor && name == "_rec_live_uservector" || n == 0 {
					t.Errorf("%s read with %d rows: not a whole model (first build had %d ratings)", name, n, floor)
					return
				}
				if name == "_rec_live_uservector" && n < last {
					t.Errorf("%s went back from %d rows to %d", name, last, n)
					return
				}
				last = n
			}
		}()
	}
	for i := 0; i < rebuilds; i++ {
		if _, err := src.Insert(types.Row{types.NewInt(int64(1 + i%40)), types.NewInt(int64(1000 + i)), types.NewFloat(3)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Rebuild("Live"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	uv, ok := m.Relation("_rec_live_uservector")
	if !ok {
		t.Fatal("uservector is gone")
	}
	if got := uv.Len(); got != floor+rebuilds {
		t.Fatalf("uservector holds %d rows after %d rebuilds, want %d", got, rebuilds, floor+rebuilds)
	}
}

// TestMaintenanceSharesSourceScan: two recommenders over one source table
// fall due on the same insert and are both rebuilt from one scan of it; a
// recommender over another table gets a scan of its own.
func TestMaintenanceSharesSourceScan(t *testing.T) {
	ratings := paperRatings()
	cat, src := newCatalogWithRatings(t, ratings)
	other, err := cat.CreateTable("other", src.Schema, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ratings[:4] {
		if _, err := other.Insert(types.Row{types.NewInt(r.User), types.NewInt(r.Item), types.NewFloat(r.Value)}); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager(cat, Options{RebuildThresholdPct: 1})
	var recs []*Recommender
	for _, def := range [][3]string{{"cos", "ratings", "ItemCosCF"}, {"svd", "RATINGS", "SVD"}, {"pop", "other", "Popularity"}} {
		r, err := m.Create(def[0], def[1], "uid", "iid", "ratingval", def[2])
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if _, err := src.Insert(types.Row{types.NewInt(1), types.NewInt(99), types.NewFloat(4)}); err != nil {
		t.Fatal(err)
	}

	loaded := make(map[ratingSource][]Rating)
	for _, r := range recs {
		if err := m.rebuildFrom(r, loaded); err != nil {
			t.Fatal(err)
		}
	}
	if len(loaded) != 2 {
		t.Fatalf("three rebuilds over two source tables made %d scans, want 2", len(loaded))
	}

	// The same through the maintenance policy: one insert, both due.
	if _, err := src.Insert(types.Row{types.NewInt(2), types.NewInt(99), types.NewFloat(5)}); err != nil {
		t.Fatal(err)
	}
	if err := m.NotifyInsert("ratings", 1); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:2] {
		if r.Rebuilds() != 2 || r.Pending() != 0 {
			t.Fatalf("%s: %d rebuilds, %d pending after the crossing", r.Name, r.Rebuilds(), r.Pending())
		}
		if got := r.Store().relation("uservector").Len(); got != int64(len(ratings))+2 {
			t.Fatalf("%s rebuilt from %d ratings, want %d", r.Name, got, len(ratings)+2)
		}
	}
	if recs[2].Rebuilds() != 1 {
		t.Fatalf("pop was rebuilt by an insert into another table")
	}
}
