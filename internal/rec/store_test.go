package rec

import (
	"math"
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

func TestMaterializeItemCF(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	model, _ := BuildNeighborhood(paperRatings(), ItemCosCF, BuildOptions{})
	store, err := Materialize(cat, "GeneralRec", model)
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Has("_rec_generalrec_uservector") || !cat.Has("_rec_generalrec_itemneighborhood") {
		t.Fatal("model tables missing from catalog")
	}
	// Store predictions match the in-memory model for every pair.
	for _, u := range model.Users() {
		for _, i := range model.Items() {
			want, wantOK := model.Predict(u, i)
			got, gotOK, err := store.Predict(u, i)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || math.Abs(got-want) > 1e-12 {
				t.Fatalf("Predict(%d,%d): store %v,%v model %v,%v", u, i, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestStoreAccessors(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	model, _ := BuildNeighborhood(paperRatings(), ItemCosCF, BuildOptions{})
	store, err := Materialize(cat, "r", model)
	if err != nil {
		t.Fatal(err)
	}
	items, err := store.UserItems(2)
	if r, _ := ValueOf(items, 1); err != nil || len(items) != 3 || r != 4.5 {
		t.Fatalf("UserItems(2) = %v, %v", items, err)
	}
	neigh, err := store.ItemNeighbors(1)
	if err != nil || len(neigh) != len(model.Neighbors(1)) {
		t.Fatalf("ItemNeighbors(1) = %v, %v", neigh, err)
	}
	// In the in-memory model's order, ascending id.
	for i, n := range model.Neighbors(1) {
		if neigh[i].ID != n.ID || math.Abs(neigh[i].Sim-n.Sim) > 1e-12 {
			t.Fatalf("neighbor %d: store %v model %v", i, neigh[i], n)
		}
	}
	if v, found, err := store.Seen(2, 1); err != nil || !found || v != 4.5 {
		t.Fatalf("Seen(2,1) = %v %v %v", v, found, err)
	}
	if _, found, _ := store.Seen(1, 3); found {
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
	cat, _ := newCatalogWithRatings(t, paperRatings())
	model, _ := BuildNeighborhood(paperRatings(), UserPearCF, BuildOptions{})
	store, err := Materialize(cat, "urec", model)
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Has("_rec_urec_userneighborhood") || !cat.Has("_rec_urec_itemvector") {
		t.Fatal("user-based model tables missing")
	}
	raters, err := store.ItemRaters(2)
	if err != nil || len(raters) != 3 {
		t.Fatalf("ItemRaters(2) = %v, %v", raters, err)
	}
	for _, u := range model.Users() {
		for _, i := range model.Items() {
			want, wantOK := model.Predict(u, i)
			got, gotOK, err := store.Predict(u, i)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK || math.Abs(got-want) > 1e-9 {
				t.Fatalf("UserCF Predict(%d,%d): store %v,%v model %v,%v", u, i, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestMaterializeSVD(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	model, _ := TrainSVD(paperRatings(), BuildOptions{SVDSeed: 1})
	store, err := Materialize(cat, "svdrec", model)
	if err != nil {
		t.Fatal(err)
	}
	if !cat.Has("_rec_svdrec_userfactor") || !cat.Has("_rec_svdrec_itemfactor") {
		t.Fatal("factor tables missing")
	}
	if store.K != model.K {
		t.Fatalf("K = %d, want %d", store.K, model.K)
	}
	for _, u := range model.Users() {
		vec, err := store.UserFactors(u)
		if err != nil || len(vec) != model.K {
			t.Fatalf("UserFactors(%d): %v %v", u, vec, err)
		}
		for f := range vec {
			if math.Abs(vec[f]-model.UserFactors[u][f]) > 1e-12 {
				t.Fatalf("factor round-trip mismatch for user %d", u)
			}
		}
	}
	got, ok, err := store.Predict(1, 2)
	want, wantOK := model.Predict(1, 2)
	if err != nil || ok != wantOK || math.Abs(got-want) > 1e-12 {
		t.Fatalf("SVD store predict: %v %v %v", got, ok, err)
	}
	// Unknown ids yield no prediction, no error.
	if _, ok, err := store.Predict(99, 1); err != nil || ok {
		t.Fatalf("unknown user: %v %v", ok, err)
	}
}

func TestMaterializeReplacesAndDrop(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	model, _ := BuildNeighborhood(paperRatings(), ItemCosCF, BuildOptions{})
	if _, err := Materialize(cat, "r", model); err != nil {
		t.Fatal(err)
	}
	// Re-materializing must not collide with the old tables.
	if _, err := Materialize(cat, "r", model); err != nil {
		t.Fatalf("re-materialize: %v", err)
	}
	DropTables(cat, "r")
	if cat.Has("_rec_r_uservector") || cat.Has("_rec_r_itemneighborhood") {
		t.Fatal("DropTables left tables behind")
	}
}

func TestVecEncoding(t *testing.T) {
	for _, v := range [][]float64{nil, {}, {1.5}, {-0.25, 3, 1e-9, math.Pi}} {
		got, err := decodeVec(encodeVec(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(v) {
			t.Fatalf("round trip %v → %v", v, got)
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("round trip %v → %v", v, got)
			}
		}
	}
	if _, err := decodeVec("1.5,abc"); err == nil {
		t.Error("bad vector should fail to decode")
	}
}
