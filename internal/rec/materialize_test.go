package rec

import (
	"encoding/base64"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/types"
)

// materializePerRow is the reference materialization, kept for the
// differential below: every table is registered empty and every row goes
// through Table.Insert — the path Materialize took before it bulk-loaded —
// with the primary-key tables' unique index maintained row by row. The
// run-keyed tables (pk < 0) get no index, as Materialize gives them none.
func materializePerRow(t *testing.T, cat *catalog.Catalog, recommender string, m Model) {
	t.Helper()
	prefix := prefixFor(recommender)
	table := func(suffix string, pk int, cols ...types.Column) func(...types.Value) {
		tab, err := cat.CreateTable(prefix+suffix, types.NewSchema(cols...), pk)
		if err != nil {
			t.Fatal(err)
		}
		return func(row ...types.Value) {
			if _, err := tab.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}

	add := table("uservector", -1, intCol("uid"), intCol("iid"), floatCol("ratingval"))
	for _, r := range m.Ratings() {
		add(types.NewInt(r.User), types.NewInt(r.Item), types.NewFloat(r.Value))
	}
	switch model := m.(type) {
	case *NeighborhoodModel:
		if model.algo.ItemBased() {
			add := table("itemneighborhood", -1, intCol("iid"), intCol("niid"), floatCol("sim"))
			for _, i := range m.Items() {
				for _, n := range model.Neighbors(i) {
					add(types.NewInt(i), types.NewInt(n.ID), types.NewFloat(n.Sim))
				}
			}
			return
		}
		add := table("userneighborhood", -1, intCol("uid"), intCol("nuid"), floatCol("sim"))
		for _, u := range m.Users() {
			for _, n := range model.Neighbors(u) {
				add(types.NewInt(u), types.NewInt(n.ID), types.NewFloat(n.Sim))
			}
		}
		add = table("itemvector", -1, intCol("iid"), intCol("uid"), floatCol("ratingval"))
		for _, i := range m.Items() {
			for _, r := range m.Ratings() {
				if r.Item == i {
					add(types.NewInt(i), types.NewInt(r.User), types.NewFloat(r.Value))
				}
			}
		}
	case *FactorModel:
		add := table("userfactor", 0, intCol("uid"), textCol("features"))
		for _, u := range m.Users() {
			add(types.NewInt(u), types.NewText(encodeVec(model.UserFactors[u])))
		}
		add = table("itemfactor", 0, intCol("iid"), textCol("features"))
		for _, i := range m.Items() {
			add(types.NewInt(i), types.NewText(encodeVec(model.ItemFactors[i])))
		}
		if model.IVF != nil && model.IVF.NumCentroids() > 0 {
			add := table("annivf", 0, intCol("seq"), textCol("chunk"))
			enc := base64.StdEncoding.EncodeToString(model.IVF.Encode())
			for seq := 0; len(enc) > 0; seq++ {
				n := min(4096, len(enc))
				add(types.NewInt(int64(seq)), types.NewText(enc[:n]))
				enc = enc[n:]
			}
		}
	case *PopularityModel:
		add := table("itemscore", 0, intCol("iid"), floatCol("score"))
		for _, i := range m.Items() {
			score, _ := model.Score(i)
			add(types.NewInt(i), types.NewFloat(score))
		}
	default:
		t.Fatalf("no reference materialization for %T", m)
	}
}

// dumpTable renders a table's rows in heap order with their RIDs, then
// every index's entries in tree order.
func dumpTable(t *testing.T, tab *catalog.Table) []string {
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
			break
		}
		out = append(out, fmt.Sprintf("%v @ %v", row, rid))
	}
	for _, col := range tab.Schema.Columns {
		idx, ok := tab.IndexOn(col.Name)
		if !ok {
			continue
		}
		if err := idx.Tree.Validate(); err != nil {
			t.Fatalf("%s: index %s: %v", tab.Name, idx.Name, err)
		}
		out = append(out, fmt.Sprintf("index %s on %s unique=%v", idx.Name, col.Name, idx.Unique))
		idx.Tree.Ascend(nil, func(k types.Row, v any) bool {
			out = append(out, fmt.Sprintf("%v -> %v", k, v))
			return true
		})
	}
	return out
}

// TestMaterializeMatchesPerRow is the materialization differential: for
// every algorithm, with full and with truncated similarity lists, each
// model table the loader builds — rows in heap order with their RIDs, and
// each index's entries in order — equals the per-row reference's, and each
// run-keyed table's directory points every key at its first row in heap
// order.
func TestMaterializeMatchesPerRow(t *testing.T) {
	ratings := benchRatings(90, 140, 0.12) // big enough for several heap pages and an IVF index
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD, Popularity} {
		for _, size := range []int{0, 7} {
			t.Run(fmt.Sprintf("%v/neighborhood=%d", algo, size), func(t *testing.T) {
				m, err := Build(ratings, algo, BuildOptions{NeighborhoodSize: size, SVDSeed: 1, SVDEpochs: 3})
				if err != nil {
					t.Fatal(err)
				}
				bulk, ref := catalog.New(nil, 0), catalog.New(nil, 0)
				store, err := Materialize(bulk, "R", m)
				if err != nil {
					t.Fatal(err)
				}
				materializePerRow(t, ref, "R", m)
				if algo == SVD && store.AnnIVF == nil {
					t.Fatal("fixture too small: the SVD model has no IVF index to compare")
				}
				dirs := map[string]runDir{}
				for suffix, dir := range map[string]runDir{
					"uservector": store.userVectorRuns, "itemneighborhood": store.itemNeighborRuns,
					"userneighborhood": store.userNeighborRuns, "itemvector": store.itemVectorRuns,
				} {
					if dir.first != nil {
						dirs[prefixFor("R")+suffix] = dir
					}
				}
				for _, name := range tableNames("R") {
					want, err := ref.Get(name)
					if err != nil {
						if bulk.Has(name) {
							t.Fatalf("Materialize made %s, the reference did not", name)
						}
						continue
					}
					got, err := bulk.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					if got.PKCol != want.PKCol || !reflect.DeepEqual(got.Schema, want.Schema) {
						t.Fatalf("%s: schema %v pk %d, want %v pk %d", name, got.Schema, got.PKCol, want.Schema, want.PKCol)
					}
					g, w := dumpTable(t, got), dumpTable(t, want)
					if len(w) < 2 {
						t.Fatalf("%s: reference is empty", name)
					}
					if !reflect.DeepEqual(g, w) {
						for i := range w {
							if i >= len(g) || g[i] != w[i] {
								t.Fatalf("%s differs at line %d of %d/%d: got %q, want %q", name, i, len(g), len(w), at(g, i), w[i])
							}
						}
						t.Fatalf("%s: %d lines, want %d", name, len(g), len(w))
					}
					if dir, ok := dirs[name]; ok {
						checkDirectory(t, got, dir)
					} else if got.PKCol < 0 {
						t.Fatalf("%s: run-keyed table without a run directory", name)
					}
				}
			})
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}

// TestRebuildPublishesWholeModels hammers by-name reads of a recommender's
// tables while it is rebuilt over a growing source table. A reader must
// always find each table, and find it whole: uservector holds one row per
// source rating as of some build, so anything below the first build's
// count is a table caught missing, empty or half filled.
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
				tab, err := cat.Get(name)
				if err != nil {
					t.Errorf("by-name read during a rebuild: %v", err)
					return
				}
				n := tab.Heap.NumRows()
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
	uv, err := cat.Get("_rec_live_uservector")
	if err != nil {
		t.Fatal(err)
	}
	if got := uv.Heap.NumRows(); got != floor+rebuilds {
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
		if got := r.Store().UserVector.Heap.NumRows(); got != int64(len(ratings))+2 {
			t.Fatalf("%s rebuilt from %d ratings, want %d", r.Name, got, len(ratings)+2)
		}
	}
	if recs[2].Rebuilds() != 1 {
		t.Fatalf("pop was rebuilt by an insert into another table")
	}
}
