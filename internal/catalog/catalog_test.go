package catalog

import (
	"reflect"
	"strings"
	"testing"

	"recdb/internal/geo"
	"recdb/internal/storage"
	"recdb/internal/types"
)

func ratingsSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "iid", Kind: types.KindInt},
		types.Column{Name: "ratingval", Kind: types.KindFloat},
	)
}

func TestCreateGetDrop(t *testing.T) {
	c := New(nil, 0)
	if _, err := c.CreateTable("Ratings", ratingsSchema(), -1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("ratings", ratingsSchema(), -1); err == nil {
		t.Fatal("case-insensitive duplicate should fail")
	}
	tab, err := c.Get("RATINGS")
	if err != nil || tab.Name != "Ratings" {
		t.Fatalf("Get: %v %v", tab, err)
	}
	if !c.Has("ratings") {
		t.Fatal("Has should be true")
	}
	if err := c.DropTable("ratings"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("ratings"); err == nil {
		t.Fatal("Get after drop should fail")
	}
	if err := c.DropTable("ratings"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	c := New(nil, 0)
	tab, _ := c.CreateTable("r", ratingsSchema(), -1)
	// Int coerces into float column.
	if _, err := tab.Insert(types.Row{types.NewInt(1), types.NewInt(2), types.NewInt(4)}); err != nil {
		t.Fatalf("int→float coercion: %v", err)
	}
	// Wrong arity.
	if _, err := tab.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Fatal("short row should fail")
	}
	// Wrong type.
	if _, err := tab.Insert(types.Row{types.NewText("x"), types.NewInt(2), types.NewFloat(1)}); err == nil {
		t.Fatal("text in int column should fail")
	}
	// NULL is allowed in non-pk columns.
	if _, err := tab.Insert(types.Row{types.NewInt(1), types.Null(), types.NewFloat(1)}); err != nil {
		t.Fatalf("null insert: %v", err)
	}
}

func TestPrimaryKeyEnforcement(t *testing.T) {
	c := New(nil, 0)
	schema := types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindText},
	)
	tab, err := c.CreateTable("users", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(types.Row{types.NewInt(1), types.NewText("Alice")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(types.Row{types.NewInt(1), types.NewText("Bob")}); err == nil {
		t.Fatal("duplicate pk should fail")
	}
	if _, err := tab.Insert(types.Row{types.Null(), types.NewText("Eve")}); err == nil {
		t.Fatal("null pk should fail")
	}
	row, _, found, err := tab.LookupPK(types.NewInt(1))
	if err != nil || !found || row[1].Text() != "Alice" {
		t.Fatalf("LookupPK: %v %v %v", row, found, err)
	}
	_, _, found, _ = tab.LookupPK(types.NewInt(99))
	if found {
		t.Fatal("missing pk should not be found")
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	c := New(nil, 0)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindText},
	)
	tab, _ := c.CreateTable("t", schema, 0)
	rid, _ := tab.Insert(types.Row{types.NewInt(1), types.NewText("a")})
	if err := tab.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := tab.LookupPK(types.NewInt(1)); found {
		t.Fatal("pk index entry should be gone")
	}
	// Re-inserting the same pk now succeeds.
	if _, err := tab.Insert(types.Row{types.NewInt(1), types.NewText("b")}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	c := New(nil, 0)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindText},
	)
	tab, _ := c.CreateTable("t", schema, 0)
	rid, _ := tab.Insert(types.Row{types.NewInt(1), types.NewText("a")})
	tab.Insert(types.Row{types.NewInt(2), types.NewText("b")})

	// Changing pk to an existing value fails.
	if _, err := tab.Update(rid, types.Row{types.NewInt(2), types.NewText("x")}); err == nil {
		t.Fatal("pk collision on update should fail")
	}
	// Changing pk to a new value re-keys the index.
	nrid, err := tab.Update(rid, types.Row{types.NewInt(3), types.NewText("c")})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, found, _ := tab.LookupPK(types.NewInt(1)); found {
		t.Fatal("old pk should be gone")
	}
	row, gotRID, found, _ := tab.LookupPK(types.NewInt(3))
	if !found || row[1].Text() != "c" || gotRID != nrid {
		t.Fatalf("new pk lookup: %v %v %v", row, gotRID, found)
	}
}

// TestFailedUpdateKeepsRowAndIndexes: an update whose row must move to
// another page, and cannot get one, changes neither the row nor any index.
func TestFailedUpdateKeepsRowAndIndexes(t *testing.T) {
	c := New(nil, 1)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindText},
	)
	tab, err := c.CreateTable("t", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tab.CreateIndex("t_g", "g")
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Repeat("a", 3000)
	rid, err := tab.Insert(types.Row{types.NewInt(1), types.NewInt(10), types.NewText(old)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(types.Row{types.NewInt(2), types.NewInt(20), types.NewText(old)}); err != nil {
		t.Fatal(err)
	}
	// A scan holds page 0, the pool's one frame, so the grown row can get
	// no fresh page.
	it := tab.Heap.Scan()
	if _, _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("scan: ok=%v err=%v", ok, err)
	}
	grown := types.Row{types.NewInt(3), types.NewInt(30), types.NewText(strings.Repeat("b", 6000))}
	if _, err := tab.Update(rid, grown); err == nil {
		t.Fatal("relocating update with every frame pinned should fail")
	}
	it.Close()

	row, got, found, err := tab.LookupPK(types.NewInt(1))
	if err != nil || !found || got != rid || row[2].Text() != old {
		t.Fatalf("pk 1 after failed update: found=%v rid=%v (want %v) err=%v", found, got, rid, err)
	}
	if _, _, found, _ := tab.LookupPK(types.NewInt(3)); found {
		t.Fatal("pk 3 indexed by a failed update")
	}
	for _, k := range []struct {
		key  int64
		want []storage.RID
	}{{10, []storage.RID{rid}}, {30, nil}} {
		var rids []storage.RID
		tab.ScanIndexRange(g, types.NewInt(k.key), types.NewInt(k.key), func(r storage.RID) bool {
			rids = append(rids, r)
			return true
		})
		if !reflect.DeepEqual(rids, k.want) {
			t.Fatalf("index t_g at %d: %v, want %v", k.key, rids, k.want)
		}
	}
}

func TestSecondaryIndexWithDuplicates(t *testing.T) {
	c := New(nil, 0)
	tab, _ := c.CreateTable("r", ratingsSchema(), -1)
	for u := int64(1); u <= 3; u++ {
		for i := int64(1); i <= 4; i++ {
			if _, err := tab.Insert(types.Row{types.NewInt(u), types.NewInt(i), types.NewFloat(float64(u + i))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	idx, err := tab.CreateIndex("r_uid", "uid")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("again", "uid"); err == nil {
		t.Fatal("duplicate index should fail")
	}
	var count int
	idx.ScanIndex(types.NewInt(2), types.NewInt(2), func(rid storage.RID) bool {
		row, err := tab.Heap.Get(rid)
		if err != nil || row[0].Int() != 2 {
			t.Fatalf("bad index hit: %v %v", row, err)
		}
		count++
		return true
	})
	if count != 4 {
		t.Fatalf("uid=2 hits = %d, want 4", count)
	}
	// Range [1,2] covers 8 rows.
	count = 0
	idx.ScanIndex(types.NewInt(1), types.NewInt(2), func(storage.RID) bool { count++; return true })
	if count != 8 {
		t.Fatalf("range hits = %d, want 8", count)
	}
	// Open bounds cover everything.
	count = 0
	idx.ScanIndex(types.Null(), types.Null(), func(storage.RID) bool { count++; return true })
	if count != 12 {
		t.Fatalf("open-range hits = %d, want 12", count)
	}
	// New inserts maintain the secondary index.
	tab.Insert(types.Row{types.NewInt(2), types.NewInt(9), types.NewFloat(1)})
	count = 0
	idx.ScanIndex(types.NewInt(2), types.NewInt(2), func(storage.RID) bool { count++; return true })
	if count != 5 {
		t.Fatalf("after insert, uid=2 hits = %d, want 5", count)
	}
	if _, ok := tab.IndexOn("uid"); !ok {
		t.Fatal("IndexOn(uid) should find the index")
	}
	if _, ok := tab.IndexOn("iid"); ok {
		t.Fatal("IndexOn(iid) should not exist")
	}
}

func TestSharedStats(t *testing.T) {
	stats := &storage.Stats{}
	c := New(stats, 4)
	tab, _ := c.CreateTable("t", ratingsSchema(), -1)
	for i := int64(0); i < 100; i++ {
		tab.Insert(types.Row{types.NewInt(i), types.NewInt(i), types.NewFloat(1)})
	}
	reads, _, _ := stats.Snapshot()
	if reads == 0 {
		t.Fatal("inserts should count page reads")
	}
	// A second table's pool counts into the same Stats.
	other, _ := c.CreateTable("u", ratingsSchema(), -1)
	for i := int64(0); i < 2; i++ {
		other.Insert(types.Row{types.NewInt(i), types.NewInt(i), types.NewFloat(1)})
	}
	if after, _, _ := stats.Snapshot(); after <= reads {
		t.Fatalf("second table's insert counted no reads: %d then %d", reads, after)
	}
}

func TestNames(t *testing.T) {
	c := New(nil, 0)
	c.CreateTable("a", ratingsSchema(), -1)
	c.CreateTable("b", ratingsSchema(), -1)
	names := c.Names()
	if len(names) != 2 {
		t.Fatalf("Names: %v", names)
	}
}

func TestSpatialIndexAtCatalogLevel(t *testing.T) {
	c := New(nil, 0)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "geom", Kind: types.KindGeometry},
	)
	tab, err := c.CreateTable("pois", schema, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rows inserted before the index exists are backfilled.
	rid1, _ := tab.Insert(types.Row{types.NewInt(1), types.NewGeometry(geo.Point{X: 1, Y: 1})})
	tab.Insert(types.Row{types.NewInt(2), types.NewGeometry(geo.Point{X: 9, Y: 9})})
	// NULL geometry rows are simply not indexed.
	tab.Insert(types.Row{types.NewInt(3), types.Null()})

	idx, err := tab.CreateIndex("pois_geom", "geom")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Spatial == nil || idx.Tree != nil {
		t.Fatal("geometry column should get an R-tree index")
	}
	if idx.Spatial.Len() != 2 {
		t.Fatalf("backfill: %d entries", idx.Spatial.Len())
	}
	var hits []int64
	idx.SearchContaining(geo.Rect(0, 0, 5, 5), func(rid storage.RID) bool {
		row, _ := tab.Heap.Get(rid)
		hits = append(hits, row[0].Int())
		return true
	})
	if len(hits) != 1 || hits[0] != 1 {
		t.Fatalf("search: %v", hits)
	}
	// SearchWithin path.
	hits = nil
	idx.SearchWithin(geo.Point{X: 8, Y: 8}, 2, func(rid storage.RID) bool {
		row, _ := tab.Heap.Get(rid)
		hits = append(hits, row[0].Int())
		return true
	})
	if len(hits) != 1 || hits[0] != 2 {
		t.Fatalf("within: %v", hits)
	}
	// Delete maintains the R-tree.
	if err := tab.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	if idx.Spatial.Len() != 1 {
		t.Fatalf("after delete: %d entries", idx.Spatial.Len())
	}
	// Spatial searches on a non-spatial index are no-ops.
	pk, _ := tab.IndexOn("id")
	called := false
	pk.SearchContaining(geo.Point{}, func(storage.RID) bool { called = true; return true })
	pk.SearchWithin(geo.Point{}, 1, func(storage.RID) bool { called = true; return true })
	if called {
		t.Fatal("spatial search over a B+-tree index should visit nothing")
	}
}

func TestIndexesEnumeration(t *testing.T) {
	c := New(nil, 0)
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindText},
	)
	tab, _ := c.CreateTable("t", schema, 0)
	tab.CreateIndex("t_v", "v")
	idxs := tab.Indexes()
	if len(idxs) != 2 {
		t.Fatalf("Indexes: %d", len(idxs))
	}
}

func TestCreateTableErrors(t *testing.T) {
	c := New(nil, 0)
	if _, err := c.CreateTable("t", ratingsSchema(), 99); err == nil {
		t.Fatal("pk out of range should fail")
	}
	if _, err := c.CreateTable("t", ratingsSchema(), -1); err != nil {
		t.Fatal(err)
	}
	tab, _ := c.Get("t")
	if _, err := tab.CreateIndex("x", "nope"); err == nil {
		t.Fatal("index on unknown column should fail")
	}
	// LookupPK without a primary key errors.
	if _, _, _, err := tab.LookupPK(types.NewInt(1)); err == nil {
		t.Fatal("LookupPK without pk should fail")
	}
}
