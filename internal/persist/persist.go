// Package persist implements crash-safe generational snapshots of a
// database. Save writes every user table (schema, rows, secondary
// indexes) plus every recommender definition into a fresh generation
// directory — each file via temp-file + fsync + rename + parent-dir
// fsync, with CRC32-C checksums and byte lengths recorded in a framed,
// self-checksummed manifest. Load picks the newest generation whose
// manifest and row files verify, falling back to the previous good
// generation when the newest is torn or corrupt. Model tables and the
// RecScoreIndex are derived state and are rebuilt rather than stored, so
// a snapshot stays small and can never serve a model inconsistent with
// its ratings.
//
// On-disk layout (DESIGN.md §8):
//
//	dir/
//	  gen-000001/            oldest retained generation
//	  gen-000002/            newest generation
//	    manifest.json        framed: "RDBM2 <crc32c> <len>\n" + JSON
//	    <table>.rows         "RDBR" + uvarint count + tuple encoding
//	  wal/                   write-ahead log (package wal)
//
// All I/O goes through a fault.FS, so the crash-simulation harness can
// fail, tear, or power-cut any individual operation deterministically.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path"
	"sort"
	"strconv"
	"strings"

	"recdb/internal/catalog"
	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/types"
)

const (
	// manifestName is the snapshot's metadata file, one per generation.
	manifestName = "manifest.json"
	// manifestMagic heads the manifest frame; the trailing 2 is the
	// snapshot format version.
	manifestMagic = "RDBM2"
	// genPrefix names generation directories: gen-000001, gen-000002, ...
	genPrefix = "gen-"
	// keepGenerations is the default retention bound on full generations.
	// Two means the previous good snapshot always survives the next Save.
	keepGenerations = 2
)

// castagnoli is the CRC32-C polynomial table used for every on-disk
// checksum in the snapshot and WAL formats.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNoSnapshot is returned by Load when dir holds no snapshot at all (as
// opposed to a corrupt one).
var ErrNoSnapshot = errors.New("persist: no snapshot found")

// CorruptError describes a snapshot file that failed validation. Load
// returns it (wrapped) only when no older generation could be loaded
// either; the path and reason make the failure actionable.
type CorruptError struct {
	Path   string
	Reason string
	Err    error
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("persist: %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("persist: %s: %s", e.Path, e.Reason)
}

// Unwrap implements errors.Unwrap.
func (e *CorruptError) Unwrap() error { return e.Err }

func corrupt(p, reason string, err error) error {
	return &CorruptError{Path: p, Reason: reason, Err: err}
}

type manifest struct {
	Version      int               `json:"version"`
	Tables       []tableMeta       `json:"tables"`
	Recommenders []recommenderMeta `json:"recommenders"`
	// WALSeq is the write-ahead-log high-water mark at snapshot time:
	// WAL records with sequence numbers <= WALSeq are already reflected
	// in this generation's rows and must not be replayed over it.
	WALSeq uint64 `json:"wal_seq"`
}

type tableMeta struct {
	Name     string       `json:"name"`
	Columns  []columnMeta `json:"columns"`
	PKCol    int          `json:"pk_col"`
	Indexes  []indexMeta  `json:"indexes,omitempty"`
	RowsFile string       `json:"rows_file"`
	RowCount int64        `json:"row_count"`
	// RowsCRC and RowsSize checksum the complete row file (header
	// included); Load verifies both before decoding a single tuple.
	RowsCRC  uint32 `json:"rows_crc32c"`
	RowsSize int64  `json:"rows_size"`
}

type columnMeta struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
}

type indexMeta struct {
	Name   string `json:"name"`
	Column string `json:"column"`
}

type recommenderMeta struct {
	Name      string `json:"name"`
	Table     string `json:"table"`
	UserCol   string `json:"user_col"`
	ItemCol   string `json:"item_col"`
	RatingCol string `json:"rating_col"`
	Algorithm string `json:"algorithm"`
}

// isDerivedTable reports whether a table is engine-managed state that a
// snapshot must not carry: the OnTopDB scratch table. A recommender's
// model is no table; recovery rebuilds it.
func isDerivedTable(name string) bool {
	return strings.HasPrefix(strings.ToLower(name), "_ontop_")
}

// genName renders a generation id as its directory name.
func genName(gen uint64) string { return fmt.Sprintf("%s%06d", genPrefix, gen) }

// parseGen extracts the id from a generation directory name.
func parseGen(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimPrefix(name, genPrefix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listGenerations returns the generation ids present in dir, ascending.
func listGenerations(fs fault.FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		if fault.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: %w", err)
	}
	var gens []uint64
	for _, name := range names {
		if g, ok := parseGen(name); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// Save snapshots the engine's user tables and recommender definitions
// into a fresh generation under dir (created if missing) and returns the
// new generation's id. walSeq is recorded in the manifest as the WAL
// high-water mark already reflected in this snapshot's rows. After the
// new generation is durable, at most retain generations (including the
// new one) are kept on disk; retain < 1 selects the default of 2, and
// deeper retention trades disk space for more fallback history when
// recovering past corrupt generations.
//
// Durability protocol: every row file is written to a temp name, fsynced,
// renamed into place, and the generation directory fsynced; the manifest
// is written the same way, last — a generation without a valid manifest
// does not exist. Older generations (and any pre-generational flat-layout
// snapshot files) are pruned only after the new generation is fully
// durable.
func Save(fs fault.FS, e *engine.Engine, dir string, walSeq uint64, retain int) (uint64, error) {
	if retain < 1 {
		retain = keepGenerations
	}
	if err := fs.MkdirAll(dir); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	gens, err := listGenerations(fs, dir)
	if err != nil {
		return 0, err
	}
	var gen uint64 = 1
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}
	genDir := path.Join(dir, genName(gen))
	if err := fs.MkdirAll(genDir); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}

	m := manifest{Version: 2, WALSeq: walSeq}
	for _, name := range e.Catalog().Names() {
		if isDerivedTable(name) {
			continue
		}
		tab, err := e.Catalog().Get(name)
		if err != nil {
			return 0, err
		}
		tm := tableMeta{
			Name:     tab.Name,
			PKCol:    tab.PKCol,
			RowsFile: safeFileName(tab.Name) + ".rows",
		}
		for _, c := range tab.Schema.Columns {
			tm.Columns = append(tm.Columns, columnMeta{Name: c.Name, Kind: uint8(c.Kind)})
		}
		pkName := ""
		if tab.PKCol >= 0 {
			pkName = strings.ToLower(tab.Schema.Columns[tab.PKCol].Name)
		}
		for _, idx := range tab.Indexes() {
			col := tab.Schema.Columns[idx.Column].Name
			if strings.ToLower(col) == pkName {
				continue // recreated implicitly with the table
			}
			tm.Indexes = append(tm.Indexes, indexMeta{Name: idx.Name, Column: col})
		}
		n, crc, size, err := writeRows(fs, path.Join(genDir, tm.RowsFile), tab)
		if err != nil {
			return 0, err
		}
		tm.RowCount, tm.RowsCRC, tm.RowsSize = n, crc, size
		m.Tables = append(m.Tables, tm)
	}

	for _, r := range e.Recommenders().List() {
		m.Recommenders = append(m.Recommenders, recommenderMeta{
			Name: r.Name, Table: r.Table,
			UserCol: r.UserCol, ItemCol: r.ItemCol, RatingCol: r.RatingCol,
			Algorithm: r.Algo.String(),
		})
	}
	sort.Slice(m.Recommenders, func(i, j int) bool {
		return m.Recommenders[i].Name < m.Recommenders[j].Name
	})

	if err := writeManifest(fs, genDir, &m); err != nil {
		return 0, err
	}
	// The new generation's directory entry must be durable in dir before
	// pruning anything older.
	if err := fs.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("persist: %w", err)
	}
	pruneGenerations(fs, dir, gens, retain)
	return gen, nil
}

// pruneGenerations best-effort removes generations beyond the retention
// bound and any pre-generational flat-layout snapshot files. The new
// generation is already durable, so a pruning failure costs disk space,
// not safety.
func pruneGenerations(fs fault.FS, dir string, oldGens []uint64, retain int) {
	for len(oldGens) >= retain {
		// Keep the newest retain-1 old ones plus the new one.
		_ = fs.RemoveAll(path.Join(dir, genName(oldGens[0]))) // best-effort prune
		oldGens = oldGens[1:]
	}
	// Flat layout: a pre-generational manifest.json and .rows files
	// directly in dir. Load refuses them, and the generational snapshot
	// just written supersedes them.
	names, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if name == manifestName || strings.HasSuffix(name, ".rows") || strings.HasSuffix(name, ".tmp") {
			_ = fs.Remove(path.Join(dir, name)) // best-effort prune
		}
	}
}

// writeManifest marshals, frames, and durably writes a generation's
// manifest: temp file, fsync, rename, directory fsync.
func writeManifest(fs fault.FS, genDir string, m *manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	framed := frameManifest(blob)
	final := path.Join(genDir, manifestName)
	if err := writeFileDurable(fs, final, framed); err != nil {
		return err
	}
	return nil
}

// frameManifest prefixes the manifest JSON with a header line carrying
// its CRC32-C and byte length, so any single-byte corruption — in the
// JSON or the header itself — is detected before the payload is trusted.
func frameManifest(blob []byte) []byte {
	header := fmt.Sprintf("%s %08x %d\n", manifestMagic, crc32.Checksum(blob, castagnoli), len(blob))
	return append([]byte(header), blob...)
}

// parseManifest validates the frame and returns the JSON payload.
func parseManifest(p string, framed []byte) ([]byte, error) {
	nl := -1
	for i, b := range framed {
		if b == '\n' {
			nl = i
			break
		}
		if i > 64 {
			break
		}
	}
	if nl < 0 {
		return nil, corrupt(p, "manifest header line missing", nil)
	}
	fields := strings.Fields(string(framed[:nl]))
	if len(fields) != 3 || fields[0] != manifestMagic {
		return nil, corrupt(p, "not a snapshot manifest", nil)
	}
	wantCRC, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, corrupt(p, "bad manifest checksum field", err)
	}
	wantLen, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return nil, corrupt(p, "bad manifest length field", err)
	}
	// The header must be the exact canonical rendering, or corruption that
	// happens to parse to the same values (e.g. a hex digit flipped to its
	// other case) would slip through undetected.
	if canon := fmt.Sprintf("%s %08x %d", manifestMagic, wantCRC, wantLen); string(framed[:nl]) != canon {
		return nil, corrupt(p, "non-canonical manifest header", nil)
	}
	blob := framed[nl+1:]
	if int64(len(blob)) != wantLen {
		return nil, corrupt(p, fmt.Sprintf("manifest is %d bytes, header says %d", len(blob), wantLen), nil)
	}
	if got := crc32.Checksum(blob, castagnoli); uint32(wantCRC) != got {
		return nil, corrupt(p, fmt.Sprintf("manifest checksum mismatch (%08x != %08x)", got, wantCRC), nil)
	}
	return blob, nil
}

// writeFileDurable writes data to path via temp-file + fsync + rename +
// parent-directory fsync. The deferred close joins its error into the
// named return so a failed flush on close is never silently dropped.
func writeFileDurable(fs fault.FS, p string, data []byte) (err error) {
	tmp := p + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("persist: close %s: %w", tmp, cerr)
			}
		}
	}()
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("persist: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("persist: sync %s: %w", tmp, err)
	}
	closed = true
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, p); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := fs.SyncDir(path.Dir(p)); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

func safeFileName(name string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '-' {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Row file format: magic "RDBR", uvarint row count, then each row in the
// self-describing tuple encoding. The whole file (header included) is
// covered by the CRC32-C recorded in the manifest.
var rowsMagic = []byte("RDBR")

// writeRows durably writes one table's row file and returns the row
// count, whole-file CRC32-C, and byte size. The deferred close joins its
// error into the named return: on a write path, a close error is a lost
// flush, not a cleanup detail.
func writeRows(fs fault.FS, p string, tab *catalog.Table) (n int64, crc uint32, size int64, err error) {
	tmp := p + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("persist: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("persist: close %s: %w", tmp, cerr)
			}
		}
	}()
	h := crc32.New(castagnoli)
	write := func(b []byte) error {
		if _, werr := f.Write(b); werr != nil {
			return fmt.Errorf("persist: write %s: %w", tmp, werr)
		}
		_, _ = h.Write(b) // hash.Hash.Write never fails
		size += int64(len(b))
		return nil
	}
	if err := write(rowsMagic); err != nil {
		return n, 0, 0, err
	}
	if err := write(binary.AppendUvarint(nil, uint64(tab.Heap.NumRows()))); err != nil {
		return n, 0, 0, err
	}
	buf := make([]byte, 0, 512)
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		row, _, ok, iterErr := it.Next()
		if iterErr != nil {
			return n, 0, 0, iterErr
		}
		if !ok {
			break
		}
		buf = types.EncodeRow(buf[:0], row)
		if err := write(buf); err != nil {
			return n, 0, 0, err
		}
		n++
	}
	if n != tab.Heap.NumRows() {
		return n, 0, 0, fmt.Errorf("persist: table %q row count changed during snapshot", tab.Name)
	}
	if err := f.Sync(); err != nil {
		return n, 0, 0, fmt.Errorf("persist: sync %s: %w", tmp, err)
	}
	closed = true
	if err := f.Close(); err != nil {
		return n, 0, 0, fmt.Errorf("persist: close %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, p); err != nil {
		return n, 0, 0, fmt.Errorf("persist: %w", err)
	}
	if err := fs.SyncDir(path.Dir(p)); err != nil {
		return n, 0, 0, fmt.Errorf("persist: %w", err)
	}
	return n, h.Sum32(), size, nil
}

// decodeRows streams the rows of one row file into fn, validating the
// declared row count against the file size before decoding: a corrupt
// header must never drive a huge allocation or an unbounded loop. Each
// row is at least one encoded byte, so count can never exceed the bytes
// remaining after the header.
func decodeRows(p string, blob []byte, fn func(types.Row) error) error {
	if len(blob) < len(rowsMagic) || string(blob[:len(rowsMagic)]) != string(rowsMagic) {
		return corrupt(p, "not a snapshot row file", nil)
	}
	rest := blob[len(rowsMagic):]
	count, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return corrupt(p, "corrupt row-count header", nil)
	}
	rest = rest[sz:]
	if count > uint64(len(rest)) {
		return corrupt(p, fmt.Sprintf("header declares %d rows but only %d bytes follow", count, len(rest)), nil)
	}
	for i := uint64(0); i < count; i++ {
		row, n, err := types.DecodeRow(rest)
		if err != nil {
			return corrupt(p, fmt.Sprintf("row %d", i), err)
		}
		rest = rest[n:]
		if err := fn(row); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return corrupt(p, fmt.Sprintf("%d trailing bytes", len(rest)), nil)
	}
	return nil
}

// Info reports what Load actually recovered.
type Info struct {
	// Gen is the generation that was loaded.
	Gen uint64
	// WALSeq is the manifest's WAL high-water mark: replay must skip
	// records with sequence numbers <= WALSeq.
	WALSeq uint64
	// Skipped records newer generations that failed validation and were
	// passed over; empty on a clean load.
	Skipped []error
}

// Load reconstructs a database, using cfg for the new engine, from the
// newest generation in dir whose manifest and row files pass checksum
// validation, falling back to older generations when the newest is torn
// or corrupt. Secondary indexes are rebuilt from the loaded rows and
// recommender models are retrained from their ratings tables. A
// pre-generational flat-layout snapshot (manifest.json directly in dir,
// no checksums) is refused with a *CorruptError; a dir holding no
// snapshot at all reports ErrNoSnapshot.
func Load(fs fault.FS, dir string, cfg engine.Config) (*engine.Engine, *Info, error) {
	gens, err := listGenerations(fs, dir)
	if err != nil {
		return nil, nil, err
	}
	var skipped []error
	for i := len(gens) - 1; i >= 0; i-- {
		genDir := path.Join(dir, genName(gens[i]))
		e, walSeq, err := loadGeneration(fs, genDir, cfg)
		if err == nil {
			return e, &Info{Gen: gens[i], WALSeq: walSeq, Skipped: skipped}, nil
		}
		skipped = append(skipped, err)
	}
	if len(skipped) > 0 {
		return nil, nil, fmt.Errorf("persist: no loadable generation in %s: %w", dir, errors.Join(skipped...))
	}
	flat := path.Join(dir, manifestName)
	if _, err := fs.Stat(flat); err == nil {
		return nil, nil, corrupt(flat, "unsupported pre-generational (version 1) flat snapshot layout", nil)
	}
	return nil, nil, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
}

// loadGeneration loads one generation directory, verifying every
// checksum before trusting a byte of payload.
func loadGeneration(fs fault.FS, genDir string, cfg engine.Config) (*engine.Engine, uint64, error) {
	manifestPath := path.Join(genDir, manifestName)
	framed, err := fs.ReadFile(manifestPath)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: %w", err)
	}
	blob, err := parseManifest(manifestPath, framed)
	if err != nil {
		return nil, 0, err
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, 0, corrupt(manifestPath, "bad manifest JSON", err)
	}
	if m.Version != 2 {
		return nil, 0, corrupt(manifestPath, fmt.Sprintf("unsupported snapshot version %d", m.Version), nil)
	}
	e, err := buildEngine(fs, genDir, &m, cfg)
	if err != nil {
		return nil, 0, err
	}
	return e, m.WALSeq, nil
}

// buildEngine reconstructs an engine from a parsed manifest. Each row
// file's size and CRC32-C are checked against the manifest before any
// tuple is decoded. Every table is bulk-loaded off to the side — its
// indexes declared before the first row and built with the load — and all
// of them are published in one catalog generation, before the recommenders
// are rebuilt over them.
func buildEngine(fs fault.FS, dir string, m *manifest, cfg engine.Config) (*engine.Engine, error) {
	e := engine.New(cfg)
	tables := make([]*catalog.Table, 0, len(m.Tables))
	for _, tm := range m.Tables {
		cols := make([]types.Column, len(tm.Columns))
		for i, c := range tm.Columns {
			cols[i] = types.Column{Name: c.Name, Kind: types.Kind(c.Kind)}
		}
		rowsPath := path.Join(dir, tm.RowsFile)
		blob, err := fs.ReadFile(rowsPath)
		if err != nil {
			return nil, fmt.Errorf("persist: %w", err)
		}
		if int64(len(blob)) != tm.RowsSize {
			return nil, corrupt(rowsPath, fmt.Sprintf("file is %d bytes, manifest says %d", len(blob), tm.RowsSize), nil)
		}
		if got := crc32.Checksum(blob, castagnoli); got != tm.RowsCRC {
			return nil, corrupt(rowsPath, fmt.Sprintf("checksum mismatch (%08x != %08x)", got, tm.RowsCRC), nil)
		}
		// Every row is at least one byte, so the file bounds the size hint.
		l, err := e.Catalog().NewLoader(tm.Name, types.NewSchema(cols...), tm.PKCol, int(max(0, min(tm.RowCount, int64(len(blob))))))
		if err != nil {
			return nil, err
		}
		for _, im := range tm.Indexes {
			if err := l.Index(im.Name, im.Column); err != nil {
				return nil, err
			}
		}
		var loaded int64
		load := func(row types.Row) error {
			if err := l.Add(row); err != nil {
				return err
			}
			loaded++
			return nil
		}
		if err := decodeRows(rowsPath, blob, load); err != nil {
			return nil, err
		}
		if loaded != tm.RowCount {
			return nil, corrupt(rowsPath, fmt.Sprintf("has %d rows, manifest says %d", loaded, tm.RowCount), nil)
		}
		tab, err := l.Finish()
		if err != nil {
			return nil, err
		}
		tables = append(tables, tab)
	}
	if err := e.Catalog().Publish(tables); err != nil {
		return nil, err
	}
	for _, rm := range m.Recommenders {
		if _, err := e.Recommenders().Create(rm.Name, rm.Table, rm.UserCol, rm.ItemCol, rm.RatingCol, rm.Algorithm); err != nil {
			return nil, fmt.Errorf("persist: rebuilding recommender %q: %w", rm.Name, err)
		}
	}
	return e, nil
}
