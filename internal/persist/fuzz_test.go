package persist

import (
	"encoding/json"
	"path"
	"runtime"
	"strings"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/types"
)

// savedFiles snapshots a small database — every column kind, NULLs, a
// geometry, an index and a recommender — and returns the generation's
// manifest and row files as Save wrote them.
func savedFiles(f *testing.F) (manifest []byte, rowFiles [][]byte) {
	f.Helper()
	e := engine.New(engine.Config{})
	if _, err := e.ExecScript(`
		CREATE TABLE pois (vid INT PRIMARY KEY, name TEXT, open BOOLEAN, geom GEOMETRY);
		CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
		CREATE INDEX ratings_uid ON ratings (uid);
		INSERT INTO pois VALUES (1, 'near', TRUE, 'POINT(1 1)'), (2, NULL, FALSE, NULL);
		INSERT INTO ratings VALUES (1, 1, 1.5), (2, 1, -0.25), (2, 2, NULL);
		CREATE RECOMMENDER r ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval;
	`); err != nil {
		f.Fatal(err)
	}
	fs := fault.NewMemFS()
	gen, err := Save(fs, e, "db", 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	dir := path.Join("db", genName(gen))
	if manifest, err = fs.ReadFile(path.Join(dir, manifestName)); err != nil {
		f.Fatal(err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".rows") {
			blob, err := fs.ReadFile(path.Join(dir, name))
			if err != nil {
				f.Fatal(err)
			}
			rowFiles = append(rowFiles, blob)
		}
	}
	if len(rowFiles) != 2 {
		f.Fatalf("the snapshot has %d row files, want 2", len(rowFiles))
	}
	return manifest, rowFiles
}

// addDamaged seeds f with b, truncations of it, and single-byte flips.
func addDamaged(f *testing.F, b []byte) {
	f.Add(b)
	for _, cut := range []int{0, 1, 4, 5, len(b) / 2, len(b) - 1} {
		if cut < len(b) {
			f.Add(b[:cut])
		}
	}
	for _, at := range []int{0, 3, 4, 5, 6, len(b) / 3, len(b) / 2, len(b) - 1} {
		if at < len(b) {
			flipped := append([]byte(nil), b...)
			flipped[at] ^= 0x5a
			f.Add(flipped)
		}
	}
}

// withinInput fails t when fn allocates more than an input of n bytes can
// back: a fixed allowance plus 128 bytes an input byte (a one-byte NULL
// decodes into a 56-byte value). A decoder that sized anything by a
// count the bytes declare, not by the bytes, allocates past that.
func withinInput(t *testing.T, n int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+128*n); got > limit {
		t.Fatalf("%d input bytes allocated %d bytes (bound %d)", n, got, limit)
	}
}

// FuzzManifest hands a generation's manifest file arbitrary bytes:
// parseManifest, then the JSON decode Load runs on what it returns, must
// not panic or allocate past the input, and a payload parseManifest
// accepts lies inside the file, behind its header line.
func FuzzManifest(f *testing.F) {
	framed, _ := savedFiles(f)
	addDamaged(f, framed)
	f.Fuzz(func(t *testing.T, framed []byte) {
		withinInput(t, len(framed), func() {
			blob, err := parseManifest(manifestName, framed)
			if err != nil {
				return
			}
			if len(blob) >= len(framed) {
				t.Fatalf("a %d-byte payload out of a %d-byte file", len(blob), len(framed))
			}
			var m manifest
			_ = json.Unmarshal(blob, &m)
		})
	})
}

// FuzzRowFile hands a table's row file arbitrary bytes: decodeRows must
// not panic or allocate past the input, and when it accepts the file it
// hands over no more rows than the file has bytes.
func FuzzRowFile(f *testing.F) {
	_, rowFiles := savedFiles(f)
	for _, blob := range rowFiles {
		addDamaged(f, blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		withinInput(t, len(blob), func() {
			var n int
			err := decodeRows("t.rows", blob, func(types.Row) error {
				n++
				return nil
			})
			if err == nil && n > len(blob) {
				t.Fatalf("%d rows out of %d bytes", n, len(blob))
			}
		})
	})
}
