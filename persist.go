package recdb

import (
	"fmt"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/persist"
)

// SaveTo checkpoints the database into dir as a new snapshot generation
// (user tables, rows, secondary indexes, and recommender definitions;
// derived state — the models and the RecScoreIndex — is rebuilt by
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
	return db.eng.Checkpoint(db.fs, dir, func(walSeq uint64) error {
		gen, err := persist.Save(db.fs, db.eng, dir, walSeq, db.retain)
		if err != nil {
			return err
		}
		db.gen.Store(gen)
		return nil
	})
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
	return openDirFS(fault.OS, dir, applyOptions(opts))
}

func openDirFS(fs fault.FS, dir string, cfg engine.Config) (*DB, error) {
	eng, info, err := persist.Load(fs, dir, cfg)
	if err != nil {
		return nil, err
	}
	replayed, err := eng.Recover(fs, dir, info.WALSeq)
	if err != nil {
		return nil, fmt.Errorf("recdb: recovering %s: %w", dir, err)
	}
	db := &DB{eng: eng, fs: fs, skipped: len(info.Skipped), retain: cfg.SnapshotRetain}
	db.gen.Store(info.Gen)
	// Checkpoint the recovered state into a fresh generation and reset
	// the log. This clears replayed segments — including a torn tail left
	// by a crash mid-commit, which later replays would otherwise trip
	// over mid-log — and bounds the next recovery's replay work.
	if replayed > 0 || len(info.Skipped) > 0 {
		if err := db.SaveTo(dir); err != nil {
			return nil, fmt.Errorf("recdb: post-recovery checkpoint: %w", err)
		}
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
	dir, seq, attached := db.eng.LogState()
	return DurabilityInfo{Dir: dir, Attached: attached, Generation: db.gen.Load(),
		WALSeq: seq, SkippedGenerations: db.skipped}
}

// SyncWAL forces grouped, not-yet-synced commits to stable storage
// (meaningful with WithWALSyncEvery(n > 1)).
func (db *DB) SyncWAL() error { return db.eng.SyncLog() }
