package persist

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/geo"
	"recdb/internal/rec"
	"recdb/internal/storage"
	"recdb/internal/types"
)

func buildSource(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{})
	if _, err := e.ExecScript(`
		CREATE TABLE users (uid INT PRIMARY KEY, name TEXT, age INT);
		CREATE TABLE pois (vid INT PRIMARY KEY, name TEXT, geom GEOMETRY);
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		CREATE INDEX ratings_uid ON ratings (uid);
		CREATE INDEX pois_geom ON pois (geom);
		INSERT INTO users VALUES (1, 'Alice', 18), (2, 'Bob', 27), (3, 'Carol', 45);
		INSERT INTO pois VALUES (1, 'near', 'POINT(1 1)'), (2, 'far', 'POINT(9 9)');
		INSERT INTO ratings VALUES
			(1, 1, 1.5), (2, 2, 3.5), (2, 1, 4.5), (2, 3, 2),
			(3, 2, 1), (3, 1, 2), (4, 2, NULL);
		CREATE RECOMMENDER SavedRec ON ratings
			USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF;
	`); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := buildSource(t)
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}

	dst, _, err := Load(fault.OS, dir, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Tables and rows round trip, including NULLs and geometry.
	for _, q := range []string{
		"SELECT * FROM users ORDER BY uid",
		"SELECT * FROM pois ORDER BY vid",
		"SELECT * FROM ratings ORDER BY uid, iid",
	} {
		a, err := src.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dst.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: %d vs %d rows", q, len(a.Rows), len(b.Rows))
		}
		for i := range a.Rows {
			if a.Rows[i].String() != b.Rows[i].String() {
				t.Fatalf("%s row %d: %v vs %v", q, i, a.Rows[i], b.Rows[i])
			}
		}
	}

	// Primary keys are enforced after load.
	if _, err := dst.Exec("INSERT INTO users VALUES (1, 'Dup', 1)"); err == nil {
		t.Fatal("pk enforcement lost after load")
	}
	// Secondary index exists again.
	tab, _ := dst.Catalog().Get("ratings")
	if _, ok := tab.IndexOn("uid"); !ok {
		t.Fatal("secondary index not rebuilt")
	}
	// The spatial index is rebuilt as an R-tree.
	pois, _ := dst.Catalog().Get("pois")
	gidx, ok := pois.IndexOn("geom")
	if !ok || gidx.Spatial == nil {
		t.Fatal("spatial index not rebuilt")
	}
	if gidx.Spatial.Len() != 2 {
		t.Fatalf("spatial entries: %d", gidx.Spatial.Len())
	}

	// The recommender was rebuilt and answers queries identically.
	qa, err := src.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC, R.iid ASC`)
	if err != nil {
		t.Fatal(err)
	}
	qb, err := dst.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC, R.iid ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(qa.Rows) != len(qb.Rows) {
		t.Fatalf("recommendation rows: %d vs %d", len(qa.Rows), len(qb.Rows))
	}
	for i := range qa.Rows {
		if qa.Rows[i].String() != qb.Rows[i].String() {
			t.Fatalf("recommendation row %d: %v vs %v", i, qa.Rows[i], qb.Rows[i])
		}
	}
}

func TestSaveSkipsDerivedTables(t *testing.T) {
	src := buildSource(t)
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if isDerivedTable(e.Name()) {
			t.Fatalf("derived state leaked into snapshot: %s", e.Name())
		}
	}
	dst, _, err := Load(fault.OS, dir, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The model relations exist in the loaded engine (rebuilt), not loaded.
	if _, ok := dst.Recommenders().Relation("_rec_savedrec_uservector"); !ok {
		t.Fatal("model relations should be rebuilt on load")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, _, err := Load(fault.OS, t.TempDir(), engine.Config{}); err == nil {
		t.Fatal("empty dir should fail")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, manifestName), []byte("{nope"), 0o644)
	if _, _, err := Load(fault.OS, dir, engine.Config{}); err == nil {
		t.Fatal("corrupt manifest should fail")
	}
	os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version": 99}`), 0o644)
	if _, _, err := Load(fault.OS, dir, engine.Config{}); err == nil {
		t.Fatal("unknown version should fail")
	}
}

func TestCorruptRowsFile(t *testing.T) {
	src := buildSource(t)
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Truncate one row file (inside the single generation, so Load has no
	// older generation to fall back to).
	path := filepath.Join(dir, genName(1), "ratings.rows")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(path, blob[:len(blob)-3], 0o644)
	if _, _, err := Load(fault.OS, dir, engine.Config{}); err == nil {
		t.Fatal("truncated row file should fail")
	}
	// Bad magic.
	os.WriteFile(path, []byte("XXXX"), 0o644)
	if _, _, err := Load(fault.OS, dir, engine.Config{}); err == nil {
		t.Fatal("bad magic should fail")
	}
}

// TestLoadAppliesConfig: a loaded recommender is rebuilt with the loading
// engine's build options, not the saving engine's: the SVD factor count
// read back from the model is the one Load was given.
func TestLoadAppliesConfig(t *testing.T) {
	src := buildSource(t)
	if _, err := src.Exec(`CREATE RECOMMENDER SavedSVD ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING SVD`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	dst, _, err := Load(fault.OS, dir, engine.Config{Rec: rec.Options{Build: rec.BuildOptions{SVDFactors: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := dst.Recommenders().Get("SavedSVD")
	if !ok {
		t.Fatal("recommender missing after load")
	}
	items := r.Store().ItemIDs()
	if len(items) == 0 {
		t.Fatal("loaded model has no items")
	}
	for _, i := range items {
		if f := r.Store().ItemFactors(i); len(f) != 3 {
			t.Fatalf("config not applied: item %d has %d factors, want 3", i, len(f))
		}
	}
}

// TestLoadKeepsRIDsAndIndexes: a snapshot reopens through the bulk loader
// into the table its row-by-row source is — every row at the same RID,
// every B-tree index entry for entry, the spatial index with the same
// answers — for a table with a primary key, a secondary index and a
// spatial index, large enough to span heap pages.
func TestLoadKeepsRIDsAndIndexes(t *testing.T) {
	src := engine.New(engine.Config{})
	var values []string
	for i := 0; i < 400; i++ {
		// 7919 is prime to 1000, so the keys are distinct and unsorted.
		values = append(values, fmt.Sprintf("(%d, 'place %d %s', 'POINT(%d %d)')", i*7919%1000, i%37, strings.Repeat("x", i%50), i%20, i/20))
	}
	if _, err := src.ExecScript(`
		CREATE TABLE places (pid INT PRIMARY KEY, name TEXT, geom GEOMETRY);
		CREATE INDEX places_name ON places (name);
		CREATE INDEX places_geom ON places (geom);
		INSERT INTO places VALUES ` + strings.Join(values, ", ") + `;
	`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	dst, _, err := Load(fault.OS, dir, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.Catalog().Get("places")
	got, err := dst.Catalog().Get("places")
	if err != nil {
		t.Fatal(err)
	}
	if w := dumpRows(t, want); want.Heap.NumPages() < 3 || !slices.Equal(dumpRows(t, got), w) {
		t.Fatalf("reloaded heap differs from its source (%d pages)", want.Heap.NumPages())
	}
	if len(got.Indexes()) != 3 {
		t.Fatalf("reloaded table has %d indexes, want 3", len(got.Indexes()))
	}
	for _, w := range want.Indexes() {
		g, ok := got.IndexOn(want.Schema.Columns[w.Column].Name)
		if !ok || g.Name != w.Name || g.Unique != w.Unique || (g.Spatial == nil) != (w.Spatial == nil) {
			t.Fatalf("index %s did not come back as it was: %+v", w.Name, g)
		}
		if w.Spatial != nil {
			for _, q := range []geo.Point{{X: 3, Y: 4}, {X: 19, Y: 0}, {X: 10, Y: 10}} {
				if a, b := within(got, g, q), within(want, w, q); len(b) == 0 || !slices.Equal(a, b) {
					t.Fatalf("%s near %v: %v, source %v", w.Name, q, a, b)
				}
			}
			continue
		}
		if a, b := dumpEntries(g), dumpEntries(w); !slices.Equal(a, b) {
			t.Fatalf("%s: %d entries, source %d, or they differ", w.Name, len(a), len(b))
		}
	}
}

func dumpRows(t *testing.T, tab *catalog.Table) []string {
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

func dumpEntries(idx *catalog.Index) []string {
	var out []string
	idx.Tree.Ascend(nil, func(k types.Row, v any) bool {
		out = append(out, fmt.Sprintf("%v -> %v", k, v))
		return true
	})
	return out
}

// within lists, in RID order, the rows the spatial index finds within 1.5
// of q.
func within(tab *catalog.Table, idx *catalog.Index, q geo.Point) []storage.RID {
	var out []storage.RID
	tab.SearchIndexWithin(idx, q, 1.5, func(rid storage.RID) bool {
		out = append(out, rid)
		return true
	})
	slices.SortFunc(out, func(a, b storage.RID) int {
		return cmp.Or(cmp.Compare(a.Page, b.Page), cmp.Compare(a.Slot, b.Slot))
	})
	return out
}

// TestLoadRefusesDuplicatePrimaryKey: a snapshot whose rows break its own
// primary key does not load.
func TestLoadRefusesDuplicatePrimaryKey(t *testing.T) {
	src := engine.New(engine.Config{})
	if _, err := src.ExecScript(`
		CREATE TABLE t (id INT, v INT);
		INSERT INTO t VALUES (1, 1), (2, 2), (1, 3);
	`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Declare id the primary key after the fact, in a validly framed
	// manifest, so only the rows are wrong.
	genDir := filepath.Join(dir, genName(1))
	framed, err := os.ReadFile(filepath.Join(genDir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := parseManifest(manifestName, framed)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m.Tables[0].PKCol = 0
	if err := writeManifest(fault.OS, genDir, &m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(fault.OS, dir, engine.Config{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("a snapshot with a duplicate primary key loaded: %v", err)
	}
}

// TestLoadIgnoresRecommenderWorkers: a manifest from before CREATE
// RECOMMENDER lost its WITH WORKERS clause carries "workers" on each
// recommender that set one. The field is ignored on load (the frame and
// RDBM2 are unchanged), and the recommender is rebuilt and serves.
func TestLoadIgnoresRecommenderWorkers(t *testing.T) {
	src := buildSource(t)
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, genName(1), manifestName)
	framed, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := parseManifest(manifestName, framed)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	recs, _ := m["recommenders"].([]any)
	if len(recs) != 1 {
		t.Fatalf("manifest lists %d recommenders, want 1", len(recs))
	}
	recs[0].(map[string]any)["workers"] = 3
	if blob, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	framed = frameManifest(blob)
	if !strings.HasPrefix(string(framed), manifestMagic+" ") {
		t.Fatalf("frame header %q", framed[:16])
	}
	if err := os.WriteFile(p, framed, 0o644); err != nil {
		t.Fatal(err)
	}

	dst, _, err := Load(fault.OS, dir, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Recommenders().Get("SavedRec"); !ok {
		t.Fatal("recommender missing after load")
	}
	res, err := dst.Query(`SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1 ORDER BY R.ratingval DESC, R.iid ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("the loaded recommender recommends nothing to user 1")
	}
}
