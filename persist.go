package recdb

import (
	"fmt"
	"path/filepath"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/metrics"
	"recdb/internal/persist"
	"recdb/internal/types"
	"recdb/internal/wal"
)

// walMetrics wires the engine's registry into a log's append/sync path,
// so WAL appends, fsync latency, and group-commit batch sizes show up in
// DB.Metrics.
func walMetrics(reg *metrics.Registry) wal.Metrics {
	return wal.Metrics{
		Appends:     reg.Counter("wal.appends"),
		AppendBytes: reg.Counter("wal.append_bytes"),
		Syncs:       reg.Counter("wal.syncs"),
		SyncNanos:   reg.Histogram("wal.fsync_ns"),
		BatchSize:   reg.Histogram("wal.batch_size"),
	}
}

// walSubdir is where a durable database keeps its write-ahead log,
// alongside the snapshot generations.
const walSubdir = "wal"

// SaveTo checkpoints the database into dir as a new snapshot generation
// (user tables, rows, secondary indexes, and recommender definitions;
// derived state — model tables and the RecScoreIndex — is rebuilt by
// OpenDir). The snapshot is crash-safe: every file is written to a temp
// name, fsynced, renamed, and the directory fsynced, and the manifest
// carries CRC32-C checksums for itself and every data file.
//
// SaveTo also makes the database durable at dir from this point on:
// subsequent mutating statements are appended to dir/wal and replayed by
// OpenDir, so a crash after SaveTo loses no acknowledged commit (under
// the default per-commit sync policy). Old snapshot generations beyond
// the retention bound and the checkpointed log segments are pruned.
func (db *DB) SaveTo(dir string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked(dir)
}

func (db *DB) checkpointLocked(dir string) error {
	fs := db.fs
	if fs == nil {
		fs = fault.OS
	}
	var walSeq uint64
	if db.wal != nil {
		walSeq = db.wal.Seq()
	}
	gen, err := persist.Save(fs, db.eng, dir, walSeq, db.retain)
	if err != nil {
		return err
	}
	db.gen = gen
	switch {
	case db.wal != nil && samePath(dir, db.dir):
		// Checkpointed in place: the snapshot owns everything logged so
		// far, so the log restarts empty.
		if err := db.wal.Reset(); err != nil {
			return err
		}
	default:
		// First checkpoint here (or a move): attach a fresh log at dir.
		if db.wal != nil {
			if err := db.wal.Close(); err != nil {
				return err
			}
		}
		l, err := wal.Open(fs, filepath.Join(dir, walSubdir), walSeq,
			wal.Options{SyncEvery: db.walSyncEvery, SyncInterval: db.walSyncIvl,
				Metrics: walMetrics(db.eng.Metrics())})
		if err != nil {
			return err
		}
		db.fs, db.dir, db.wal = fs, dir, l
		db.eng.SetCommitHook(db.logCommitLocked)
	}
	return nil
}

// samePath reports whether two directory paths name the same location,
// tolerating "./", trailing-slash, and relative-vs-absolute spellings of
// one path. Purely lexical: symlinked aliases still compare unequal.
func samePath(a, b string) bool {
	if a == b {
		return true
	}
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	return errA == nil && errB == nil && aa == bb
}

// logCommitLocked is the engine commit hook: it encodes a commit's logical
// mutations as tuple-level WAL records and appends them in one atomic
// group. A single bare mutation becomes one record; a group (an explicit
// transaction's write set, or a multi-row statement) is framed
// TxnBegin..TxnCommit and written with AppendBatch, whose single
// contiguous write guarantees a crash can only ever tear the suffix —
// losing the commit record and making recovery discard the whole
// transaction rather than replay part of it.
//
// The hook only runs from commit paths that hold db.mu (shared for DML
// plus the table's write gate, exclusive for DDL), so same-table append
// order always matches apply order, and db.wal cannot be detached
// concurrently. Its error fails the commit, telling the caller the
// change is applied in memory but not durable.
func (db *DB) logCommitLocked(txn uint64, muts []engine.Mutation) error {
	payloads := make([][]byte, 0, len(muts)+2)
	if txn != 0 {
		payloads = append(payloads, wal.EncodeRecord(nil, wal.Record{Kind: wal.RecTxnBegin, Txn: txn}))
	}
	for _, m := range muts {
		// engine.Mut* kinds are defined as the matching wal.Rec* bytes.
		rec := wal.Record{Kind: m.Kind, Txn: txn, Table: m.Table, Text: m.Text}
		if m.Row != nil {
			rec.Row = types.EncodeRow(nil, m.Row)
		}
		if m.Old != nil {
			rec.Old = types.EncodeRow(nil, m.Old)
		}
		payloads = append(payloads, wal.EncodeRecord(nil, rec))
	}
	if txn != 0 {
		payloads = append(payloads, wal.EncodeRecord(nil, wal.Record{Kind: wal.RecTxnCommit, Txn: txn}))
	}
	if _, err := db.wal.AppendBatch(payloads); err != nil {
		return fmt.Errorf("recdb: commit applied but not logged: %w", err)
	}
	return nil
}

// replayRecord applies one logical WAL record to the recovering engine.
// Tuple records go straight to the heap (maintaining primary and
// secondary indexes and recommender counters); statement records (DDL)
// re-execute their SQL text.
func replayRecord(eng *engine.Engine, rec wal.Record) error {
	decode := func(buf []byte) (types.Row, error) {
		if buf == nil {
			return nil, nil
		}
		row, _, err := types.DecodeRow(buf)
		return row, err
	}
	switch rec.Kind {
	case wal.RecInsert:
		row, err := decode(rec.Row)
		if err != nil {
			return err
		}
		return eng.ApplyInsert(rec.Table, row)
	case wal.RecDelete:
		old, err := decode(rec.Old)
		if err != nil {
			return err
		}
		return eng.ApplyDelete(rec.Table, old)
	case wal.RecUpdate:
		old, err := decode(rec.Old)
		if err != nil {
			return err
		}
		row, err := decode(rec.Row)
		if err != nil {
			return err
		}
		return eng.ApplyUpdate(rec.Table, old, row)
	case wal.RecStmt:
		_, err := eng.Exec(rec.Text)
		return err
	}
	return fmt.Errorf("unexpected record kind %q", rec.Kind)
}

// OpenDir recovers a database from a directory produced by SaveTo: it
// loads the newest snapshot generation whose checksums verify (falling
// back to an older generation if the newest is corrupt), replays the
// write-ahead log past the snapshot's high-water mark — truncating a
// torn tail from a crash mid-commit — and reattaches the log so the
// database continues durably. Recommendation models are retrained from
// their ratings tables using the options in effect here (so a snapshot
// can be reopened with different tuning).
func OpenDir(dir string, opts ...Option) (*DB, error) {
	var cfg engine.Config
	for _, o := range opts {
		o(&cfg)
	}
	return openDirFS(fault.OS, dir, cfg)
}

func openDirFS(fs fault.FS, dir string, cfg engine.Config) (*DB, error) {
	eng, info, err := persist.Load(fs, dir, cfg)
	if err != nil {
		return nil, err
	}
	// Collect the log's surviving records first. They are applied only if
	// they contiguously extend the loaded snapshot: when Load fell back
	// past a corrupt newer generation, the log continues that newer
	// timeline (its first sequence is past the older snapshot's high-water
	// mark) and replaying it would interleave histories — the safe
	// recovery is the older checkpoint alone.
	walDir := filepath.Join(dir, walSubdir)
	type record struct {
		seq     uint64
		payload []byte
	}
	var records []record
	last, err := wal.Replay(fs, walDir, info.WALSeq, func(seq uint64, payload []byte) error {
		records = append(records, record{seq, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("recdb: recovering %s: %w", dir, err)
	}
	if len(records) > 0 && records[0].seq != info.WALSeq+1 {
		records, last = nil, info.WALSeq
	}
	// Replay before installing the commit hook, so replayed changes are
	// not re-logged. Segments carry logical tuple records applied
	// directly to the heap — no re-parse, no re-plan (DDL alone travels
	// as statement text). Records tagged with a transaction id are
	// buffered and applied only when their TxnCommit record arrives: a
	// transaction whose commit record is missing (crash mid-commit tore
	// the group's suffix) or that aborted is discarded whole, never
	// half-replayed.
	pending := make(map[uint64][]wal.Record)
	for _, r := range records {
		rec, err := wal.DecodeRecord(r.payload)
		if err != nil {
			return nil, fmt.Errorf("recdb: recovering %s: record %d: %w", dir, r.seq, err)
		}
		switch rec.Kind {
		case wal.RecTxnBegin:
			pending[rec.Txn] = nil
		case wal.RecTxnCommit:
			for _, m := range pending[rec.Txn] {
				if err := replayRecord(eng, m); err != nil {
					return nil, fmt.Errorf("recdb: recovering %s: transaction %d: %w", dir, rec.Txn, err)
				}
			}
			delete(pending, rec.Txn)
		case wal.RecTxnAbort:
			delete(pending, rec.Txn)
		default:
			if rec.Txn != 0 {
				pending[rec.Txn] = append(pending[rec.Txn], rec)
				continue
			}
			if err := replayRecord(eng, rec); err != nil {
				return nil, fmt.Errorf("recdb: recovering %s: record %d: %w", dir, r.seq, err)
			}
		}
	}
	// Anything still pending lacks a commit record: the transaction was
	// open (or its group append was torn) at the crash. Atomicity says it
	// never happened.
	l, err := wal.Open(fs, walDir, last,
		wal.Options{SyncEvery: cfg.WALSyncEvery, SyncInterval: cfg.WALSyncInterval,
			Metrics: walMetrics(eng.Metrics())})
	if err != nil {
		return nil, err
	}
	db := &DB{eng: eng, fs: fs, dir: dir, wal: l, gen: info.Gen,
		walSyncEvery: cfg.WALSyncEvery, walSyncIvl: cfg.WALSyncInterval,
		skipped: len(info.Skipped), retain: cfg.SnapshotRetain}
	eng.SetCommitHook(db.logCommitLocked)
	// Checkpoint the recovered state into a fresh generation and reset
	// the log. This clears replayed segments — including a torn tail left
	// by a crash mid-commit, which later replays would otherwise trip
	// over mid-log — and bounds the next recovery's replay work.
	if len(records) > 0 || len(info.Skipped) > 0 {
		if err := db.checkpointLocked(dir); err != nil {
			return nil, fmt.Errorf("recdb: post-recovery checkpoint: %w", err)
		}
	} else if err := l.Reset(); err != nil {
		// No records survived, so the snapshot already owns everything;
		// clearing the old segments drops any torn tail a crash left
		// behind (a later replay would trip over it mid-log).
		return nil, fmt.Errorf("recdb: clearing recovered log: %w", err)
	}
	return db, nil
}

// DurabilityInfo describes the database's durability state.
type DurabilityInfo struct {
	// Dir is the durable home ("" while purely in-memory).
	Dir string
	// Attached reports whether a write-ahead log is receiving commits.
	Attached bool
	// Generation is the snapshot generation last written or recovered.
	Generation uint64
	// WALSeq is the last logged statement's sequence number.
	WALSeq uint64
	// SkippedGenerations counts corrupt generations OpenDir had to skip.
	SkippedGenerations int
}

// Durability reports where (and whether) the database persists.
func (db *DB) Durability() DurabilityInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	info := DurabilityInfo{Dir: db.dir, Generation: db.gen, SkippedGenerations: db.skipped}
	if db.wal != nil {
		info.Attached = true
		info.WALSeq = db.wal.Seq()
	}
	return info
}

// SyncWAL forces grouped, not-yet-synced commits to stable storage
// (meaningful with WithWALSyncEvery(n > 1)).
func (db *DB) SyncWAL() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return fmt.Errorf("recdb: no write-ahead log attached; call SaveTo or OpenDir first")
	}
	return db.wal.Sync()
}
