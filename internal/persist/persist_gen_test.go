package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/types"
)

func countRows(t *testing.T, e *engine.Engine, table string) int {
	t.Helper()
	res, err := e.Query("SELECT * FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

func TestGenerationFallback(t *testing.T) {
	fs := fault.NewMemFS()
	src := buildSource(t)
	gen1, err := Save(fs, src, "db", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec("INSERT INTO users VALUES (9, 'Niner', 9)"); err != nil {
		t.Fatal(err)
	}
	gen2, err := Save(fs, src, "db", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gen1 != 1 || gen2 != 2 {
		t.Fatalf("generations = %d, %d", gen1, gen2)
	}

	// Clean load picks the newest generation.
	dst, info, err := Load(fs, "db", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 2 || len(info.Skipped) != 0 {
		t.Fatalf("info = %+v", info)
	}
	if got := countRows(t, dst, "users"); got != 4 {
		t.Fatalf("users after clean load: %d", got)
	}

	// Corrupt one byte of the newest generation's manifest: Load falls
	// back to generation 1 and reports the skip.
	if err := fs.Corrupt("db/"+genName(2)+"/"+manifestName, 40, 0x01); err != nil {
		t.Fatal(err)
	}
	dst, info, err = Load(fs, "db", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || len(info.Skipped) != 1 {
		t.Fatalf("fallback info = %+v", info)
	}
	if got := countRows(t, dst, "users"); got != 3 {
		t.Fatalf("users after fallback load: %d", got)
	}
	var ce *CorruptError
	if !errors.As(info.Skipped[0], &ce) {
		t.Fatalf("skipped error is %T, want *CorruptError", info.Skipped[0])
	}
}

func TestGenerationPruning(t *testing.T) {
	fs := fault.NewMemFS()
	src := buildSource(t)
	for i := 0; i < 4; i++ {
		if _, err := Save(fs, src, "db", 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := listGenerations(fs, "db")
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != keepGenerations {
		t.Fatalf("retained %d generations, want %d (%v)", len(gens), keepGenerations, gens)
	}
	if gens[len(gens)-1] != 4 {
		t.Fatalf("newest generation = %d, want 4", gens[len(gens)-1])
	}
}

func TestDroppedTableLeavesNoOrphans(t *testing.T) {
	fs := fault.NewMemFS()
	src := buildSource(t)
	if _, err := Save(fs, src, "db", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Exec("DROP TABLE pois"); err != nil {
		t.Fatal(err)
	}
	gen, err := Save(fs, src, "db", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir("db/" + genName(gen))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.Contains(name, "pois") {
			t.Fatalf("dropped table left %s in generation %d", name, gen)
		}
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("temp file %s left in generation %d", name, gen)
		}
	}
	dst, _, err := Load(fs, "db", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dst.Catalog().Has("pois") {
		t.Fatal("dropped table resurrected by load")
	}
}

func TestRowCountHeaderValidation(t *testing.T) {
	// A corrupt header declaring 2^40 rows must produce a clean error,
	// not a huge allocation or an unbounded decode loop.
	blob := append([]byte("RDBR"), binary.AppendUvarint(nil, 1<<40)...)
	err := decodeRows("bogus.rows", blob, func(types.Row) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if !strings.Contains(err.Error(), "declares") {
		t.Fatalf("err = %v, want row-count mismatch", err)
	}
}

// closeFailFS makes every writable file's Close fail, to pin down the
// write path's close-error join: a close error on a snapshot file is a
// lost flush and must fail the Save.
type closeFailFS struct {
	fault.FS
}

func (c closeFailFS) Create(path string) (fault.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return closeFailFile{f}, nil
}

type closeFailFile struct {
	fault.File
}

func (f closeFailFile) Close() error {
	_ = f.File.Close()
	return fmt.Errorf("injected close failure")
}

func TestWriteRowsCloseErrorPropagates(t *testing.T) {
	fs := closeFailFS{fault.NewMemFS()}
	src := buildSource(t)
	_, err := Save(fs, src, "db", 0, 0)
	if err == nil || !strings.Contains(err.Error(), "injected close failure") {
		t.Fatalf("Save with failing close: err = %v", err)
	}
}

// TestLegacyV1SnapshotRejected: a pre-generational flat layout (a plain
// JSON manifest.json directly in dir) has had no writer since generations
// landed; Load answers a typed *CorruptError naming the layout instead of
// decoding unchecksummed rows.
func TestLegacyV1SnapshotRejected(t *testing.T) {
	fs := fault.NewMemFS()
	if err := fs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	mblob, err := json.Marshal(&manifest{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	mf, err := fs.Create("db/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.Write(mblob); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = Load(fs, "db", engine.Config{})
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("flat v1 layout: err = %v, want *CorruptError", err)
	}
	if ce.Path != "db/"+manifestName || !strings.Contains(ce.Reason, "flat snapshot layout") {
		t.Fatalf("flat v1 layout: error does not name the layout: %v", err)
	}
	if errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("flat v1 layout must not read as an empty directory: %v", err)
	}
}

func TestLoadNoSnapshot(t *testing.T) {
	fs := fault.NewMemFS()
	if err := fs.MkdirAll("empty"); err != nil {
		t.Fatal(err)
	}
	_, _, err := Load(fs, "empty", engine.Config{})
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("err = %v, want ErrNoSnapshot", err)
	}
	_, _, err = Load(fs, "missing", engine.Config{})
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing dir err = %v, want ErrNoSnapshot", err)
	}
}
