package rec

import (
	"testing"

	"recdb/internal/types"
)

func TestManagerCreateGetDrop(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	r, err := m.Create("GeneralRec", "ratings", "uid", "iid", "ratingval", "ItemCosCF")
	if err != nil {
		t.Fatal(err)
	}
	if r.Algo != ItemCosCF || r.Store() == nil {
		t.Fatalf("recommender: %+v", r)
	}
	if r.BuildTime() <= 0 {
		t.Error("build time should be recorded")
	}
	if _, err := m.Create("generalrec", "ratings", "uid", "iid", "ratingval", ""); err == nil {
		t.Fatal("case-insensitive duplicate name should fail")
	}
	got, ok := m.Get("GENERALREC")
	if !ok || got != r {
		t.Fatal("Get should find the recommender case-insensitively")
	}
	if len(m.List()) != 1 {
		t.Fatal("List should have one entry")
	}
	if _, ok := m.Relation("_rec_generalrec_uservector"); !ok {
		t.Fatal("no uservector relation")
	}
	if err := m.Drop("GeneralRec"); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Relation("_rec_generalrec_uservector"); ok {
		t.Fatal("drop should remove the model relations")
	}
	if err := m.Drop("GeneralRec"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestManagerCreateErrors(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	if _, err := m.Create("r", "nope", "uid", "iid", "ratingval", ""); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := m.Create("r", "ratings", "nope", "iid", "ratingval", ""); err == nil {
		t.Error("missing user column should fail")
	}
	if _, err := m.Create("r", "ratings", "uid", "iid", "ratingval", "Quantum"); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestManagerForQuery(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	m.Create("a", "ratings", "uid", "iid", "ratingval", "ItemCosCF")
	m.Create("b", "ratings", "uid", "iid", "ratingval", "SVD")

	r, err := m.ForQuery("Ratings", "svd")
	if err != nil || r.Name != "b" {
		t.Fatalf("ForQuery(svd): %v %v", r, err)
	}
	// Empty algorithm resolves to the default (ItemCosCF).
	r, err = m.ForQuery("ratings", "")
	if err != nil || r.Name != "a" {
		t.Fatalf("ForQuery(default): %v %v", r, err)
	}
	if _, err := m.ForQuery("ratings", "UserCosCF"); err == nil {
		t.Fatal("missing recommender should fail with a helpful error")
	}
	if _, err := m.ForQuery("other", "ItemCosCF"); err == nil {
		t.Fatal("wrong table should fail")
	}
}

func TestMaintenanceThreshold(t *testing.T) {
	cat, tab := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{RebuildThresholdPct: 50}) // rebuild at 50% of 7 ratings ≈ 3
	r, err := m.Create("r", "ratings", "uid", "iid", "ratingval", "ItemCosCF")
	if err != nil {
		t.Fatal(err)
	}
	// A cached tree of the current model (user 1 has not rated items 2
	// and 3); the rebuild must clear it.
	ix := r.Cache().Index()
	if err := r.Cache().MaterializeUser(1); err != nil {
		t.Fatal(err)
	}

	insert := func(u, i int64, v float64) {
		t.Helper()
		if _, err := tab.Insert(types.Row{types.NewInt(u), types.NewInt(i), types.NewFloat(v)}); err != nil {
			t.Fatal(err)
		}
		if err := m.NotifyInsert("ratings", 1); err != nil {
			t.Fatal(err)
		}
	}
	insert(1, 2, 3) // pending 1 < 3
	insert(1, 3, 4) // pending 2 < 3
	if r.Rebuilds() != 0 || ix.Len() != 2 {
		t.Fatalf("premature rebuild: %d, cache holds %d scores", r.Rebuilds(), ix.Len())
	}
	insert(4, 1, 2) // pending 3 ≥ 3 → rebuild
	if r.Rebuilds() != 1 || ix.Len() != 0 {
		t.Fatalf("rebuilds = %d, cache holds %d scores of the replaced model", r.Rebuilds(), ix.Len())
	}
	if r.Pending() != 0 {
		t.Fatalf("pending after rebuild = %d", r.Pending())
	}
	// The rebuilt model includes the new ratings.
	if _, found := r.Store().Seen(1, 2); !found {
		t.Fatal("rebuilt model missing new rating")
	}
	// Inserts to unrelated tables are ignored.
	if err := m.NotifyInsert("unrelated", 100); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 0 {
		t.Fatal("unrelated inserts should not count")
	}
}

func TestManualRebuild(t *testing.T) {
	cat, tab := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	r, _ := m.Create("r", "ratings", "uid", "iid", "ratingval", "")
	tab.Insert(types.Row{types.NewInt(9), types.NewInt(1), types.NewFloat(5)})
	if err := m.Rebuild("r"); err != nil {
		t.Fatal(err)
	}
	if _, found := r.Store().Seen(9, 1); !found {
		t.Fatal("manual rebuild should pick up new ratings")
	}
	if err := m.Rebuild("missing"); err == nil {
		t.Fatal("rebuild of missing recommender should fail")
	}
}

func TestResolveRatingColumns(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	r, _ := m.Create("r", "ratings", "uid", "iid", "ratingval", "")
	tab, _ := cat.Get("ratings")
	u, i, v, err := r.ResolveRatingColumns(tab.Schema)
	if err != nil || u != 0 || i != 1 || v != 2 {
		t.Fatalf("ResolveRatingColumns: %d %d %d %v", u, i, v, err)
	}
}

func TestLoadRatingsSkipsNulls(t *testing.T) {
	cat, tab := newCatalogWithRatings(t, paperRatings())
	tab.Insert(types.Row{types.Null(), types.NewInt(1), types.NewFloat(5)})
	m := NewManager(cat, Options{})
	r, err := m.Create("r", "ratings", "uid", "iid", "ratingval", "")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := m.loadRatings(r.Table, r.UserCol, r.ItemCol, r.RatingCol); len(got) != 7 {
		t.Fatalf("null row should be skipped, got %d ratings", len(got))
	}
}
