package catalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"recdb/internal/geo"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// dumpIndex renders an index's entries in tree order.
func dumpIndex(idx *Index) []string {
	var out []string
	idx.Tree.Ascend(nil, func(k types.Row, v any) bool {
		out = append(out, fmt.Sprintf("%v -> %v", k, v))
		return true
	})
	return out
}

// dumpHeap renders a table's rows in heap order, each with its RID.
func dumpHeap(t *testing.T, tab *Table) []string {
	t.Helper()
	var out []string
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		row, rid, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, fmt.Sprintf("%v @ %v", row, rid))
	}
}

func sameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if g, w := dumpHeap(t, got), dumpHeap(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("heaps differ:\n got %v\nwant %v", g, w)
	}
	if len(got.Indexes()) != len(want.Indexes()) {
		t.Fatalf("%d indexes, want %d", len(got.Indexes()), len(want.Indexes()))
	}
	for _, w := range want.Indexes() {
		col := want.Schema.Columns[w.Column].Name
		g, ok := got.IndexOn(col)
		if !ok {
			t.Fatalf("no index on %s", col)
		}
		if g.Name != w.Name || g.Unique != w.Unique || g.Column != w.Column {
			t.Fatalf("index on %s is %+v, want %+v", col, g, w)
		}
		if gd, wd := dumpIndex(g), dumpIndex(w); !reflect.DeepEqual(gd, wd) {
			t.Fatalf("index on %s differs:\n got %v\nwant %v", col, gd, wd)
		}
		if err := g.Tree.Validate(); err != nil {
			t.Fatalf("index on %s: %v", col, err)
		}
	}
}

func mixedSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "grp", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindText},
	)
}

// mixedRows returns n rows with unique shuffled ids, a low-cardinality grp
// with NULLs in it, and text tags long enough that the heap spans pages.
func mixedRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i, id := range rng.Perm(n) {
		grp := types.NewInt(int64(rng.Intn(7)))
		if rng.Intn(10) == 0 {
			grp = types.Null()
		}
		rows[i] = types.Row{types.NewInt(int64(id)), grp, types.NewText(strings.Repeat("t", rng.Intn(200)) + fmt.Sprint(id%13))}
	}
	return rows
}

// perRowTable is the reference: every index exists before the first row,
// so each entry goes in through Table.Insert's incremental Index.add.
func perRowTable(t *testing.T, pk int, indexed []string, rows []types.Row) *Table {
	t.Helper()
	tab, err := New(nil, 0).CreateTable("t", mixedSchema(), pk)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range indexed {
		if _, err := tab.CreateIndex("t_"+col, col); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rows {
		if _, err := tab.Insert(r.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestCreateIndexMatchesPerRow: an index built in bulk over rows already in
// the heap — on an unsorted column, one with duplicates and NULLs, and a
// text one — equals, entry for entry, the index the same rows grow one
// Insert at a time; and it keeps taking inserts and deletes afterwards.
func TestCreateIndexMatchesPerRow(t *testing.T) {
	rows := mixedRows(rand.New(rand.NewSource(1)), 700)
	cols := []string{"id", "grp", "tag"}
	want := perRowTable(t, -1, cols, rows)

	got, err := New(nil, 0).CreateTable("t", mixedSchema(), -1)
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	for _, r := range rows {
		rid, err := got.Insert(r.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for _, col := range cols {
		if _, err := got.CreateIndex("t_"+col, col); err != nil {
			t.Fatal(err)
		}
	}
	sameTable(t, got, want)

	extra := types.Row{types.NewInt(100000), types.NewInt(3), types.NewText("late")}
	for _, tab := range []*Table{got, want} {
		for i := 0; i < len(rids); i += 3 {
			if err := tab.Delete(rids[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tab.Insert(extra.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	sameTable(t, got, want)
}

// TestCreateIndexKeepsEqualKeysInRIDOrder: CREATE INDEX over a few
// thousand rows whose column arrives unsorted, with few distinct values,
// gives each value's entries in insertion order — ascending RID — as the
// per-row index orders them.
func TestCreateIndexKeepsEqualKeysInRIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab, err := New(nil, 0).CreateTable("t", mixedSchema(), -1)
	if err != nil {
		t.Fatal(err)
	}
	inserted := map[int64][]storage.RID{}
	for i := 0; i < 4000; i++ {
		grp := int64(rng.Intn(5))
		rid, err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewInt(grp), types.NewText("x")})
		if err != nil {
			t.Fatal(err)
		}
		inserted[grp] = append(inserted[grp], rid)
	}
	idx, err := tab.CreateIndex("t_grp", "grp")
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	got := map[int64][]storage.RID{}
	idx.Tree.Ascend(nil, func(k types.Row, v any) bool {
		got[k[0].Int()] = append(got[k[0].Int()], v.(storage.RID))
		return true
	})
	if !reflect.DeepEqual(got, inserted) {
		t.Fatal("equal keys are not in insertion order")
	}
}

// TestLoaderMatchesPerRow: a table bulk-loaded with a primary key and two
// secondary indexes — none of whose columns arrive in order — has the heap,
// the RIDs and the indexes of the per-row reference.
func TestLoaderMatchesPerRow(t *testing.T) {
	rows := mixedRows(rand.New(rand.NewSource(2)), 900)
	want := perRowTable(t, 0, []string{"grp", "tag"}, rows)

	c := New(nil, 0)
	l, err := c.NewLoader("t", mixedSchema(), 0, len(rows)/2) // a wrong hint is harmless
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"grp", "tag"} {
		if err := l.Index("t_"+col, col); err != nil {
			t.Fatal(err)
		}
	}
	row := make(types.Row, 3)
	for _, r := range rows {
		copy(row, r) // Add must not keep the row it is handed
		if err := l.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Index("t_late", "id"); err == nil {
		t.Fatal("Index after Add was accepted")
	}
	got, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if c.Has("t") {
		t.Fatal("table visible by name before Publish")
	}
	sameTable(t, got, want)

	// Sorted arrival takes the no-sort path and must agree too.
	sorted := make([]types.Row, 300)
	for i := range sorted {
		sorted[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i / 10)), types.NewText("s")}
	}
	want = perRowTable(t, 0, []string{"grp"}, sorted)
	l, err = c.NewLoader("t", mixedSchema(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Index("t_grp", "grp"); err != nil {
		t.Fatal(err)
	}
	for _, r := range sorted {
		if err := l.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, err = l.Finish(); err != nil {
		t.Fatal(err)
	}
	sameTable(t, got, want)
}

func TestLoaderRefusesBadPrimaryKeys(t *testing.T) {
	c := New(nil, 0)
	for name, ids := range map[string][]int64{"adjacent": {1, 2, 2, 3}, "apart": {2, 1, 3, 2}} {
		l, err := c.NewLoader("t", mixedSchema(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if err := l.Add(types.Row{types.NewInt(id), types.Null(), types.NewText("x")}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Finish(); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("%s duplicates: Finish returned %v", name, err)
		}
	}
	l, err := c.NewLoader("t", mixedSchema(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Add(types.Row{types.Null(), types.NewInt(1), types.NewText("x")}); err == nil {
		t.Fatal("NULL primary key accepted")
	}
	if err := l.Add(types.Row{types.NewText("one"), types.NewInt(1), types.NewText("x")}); err == nil {
		t.Fatal("mistyped row accepted")
	}
}

func TestLoaderSpatialIndex(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "loc", Kind: types.KindGeometry},
	)
	l, err := New(nil, 0).NewLoader("places", schema, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Index("places_loc", "loc"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Add(types.Row{types.NewInt(int64(i)), types.NewGeometry(geo.Point{X: float64(i), Y: 0})}); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := tab.IndexOn("loc")
	found := 0
	tab.SearchIndexWithin(idx, geo.Point{X: 5, Y: 0}, 1.5, func(storage.RID) bool { found++; return true })
	if found != 3 {
		t.Fatalf("SearchWithin found %d places, want 3", found)
	}
}

// TestPublishSwapsInOneGeneration: Publish adds its tables together,
// refuses a name that is taken or added twice, and changes nothing when it
// refuses.
func TestPublishSwapsInOneGeneration(t *testing.T) {
	c := New(nil, 0)
	load := func(name string) *Table {
		l, err := c.NewLoader(name, ratingsSchema(), -1, 0)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := l.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	oldA, oldB := load("a"), load("b")
	if err := c.Publish([]*Table{oldA, oldB}); err != nil {
		t.Fatal(err)
	}
	newA, newC := load("A"), load("c")
	if err := c.Publish([]*Table{newC, newA}); err == nil {
		t.Fatal("Publish replaced a table")
	}
	if c.Has("c") {
		t.Fatal("a refused Publish registered part of its tables")
	}
	if err := c.Publish([]*Table{newC, load("C")}); err == nil {
		t.Fatal("Publish added two tables under one name")
	}
	if err := c.Publish([]*Table{newC}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("a"); got != oldA {
		t.Fatal("a was replaced")
	}
	if !c.Has("b") || !c.Has("c") {
		t.Fatalf("after the publish: has b = %v, has c = %v", c.Has("b"), c.Has("c"))
	}
}
