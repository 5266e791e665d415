package persist

import (
	"os"
	"path/filepath"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/rec"
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
	// The model tables exist in the loaded engine (rebuilt), not loaded.
	if !dst.Catalog().Has("_rec_savedrec_uservector") {
		t.Fatal("model tables should be rebuilt on load")
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

func TestLoadAppliesConfig(t *testing.T) {
	src := buildSource(t)
	dir := t.TempDir()
	if _, err := Save(fault.OS, src, dir, 0, 0); err != nil {
		t.Fatal(err)
	}
	dst, _, err := Load(fault.OS, dir, engine.Config{Rec: rec.Options{Build: rec.BuildOptions{NeighborhoodSize: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := dst.Recommenders().Get("SavedRec")
	if !ok {
		t.Fatal("recommender missing after load")
	}
	// With neighborhood size 1, every similarity list has at most 1 entry.
	for _, i := range r.Store().ItemIDs() {
		neigh, err := r.Store().ItemNeighbors(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(neigh) > 1 {
			t.Fatalf("config not applied: item %d has %d neighbors", i, len(neigh))
		}
	}
}
