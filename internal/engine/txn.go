package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"recdb/internal/catalog"
	"recdb/internal/fault"
	"recdb/internal/sql"
	"recdb/internal/storage"
	"recdb/internal/types"
	"recdb/internal/wal"
)

// This file is the commit protocol: the one place that orders locks,
// apply, log and maintenance for every write — an autocommit statement,
// an explicit transaction and a replayed WAL group alike.
//
//  1. Lock. DML holds the commit lock shared plus its table's write gate
//     (same-table appliers serialize, so log order is apply order per
//     table); an explicit transaction holds the transaction gate and the
//     commit lock shared for its whole life, plus each touched table's
//     gate from first touch; DDL, checkpoints and recovery hold the
//     commit lock exclusively. Read-only statements take nothing: they
//     read through page-level snapshots and the catalog's published
//     generation.
//  2. Apply. The change goes to the heap and indexes; a statement that
//     fails part-way is undone by applying the inverse of each change it
//     made, newest first.
//  3. Log. The group is encoded as logical WAL records and appended with
//     one AppendBatch, when a log is attached (replay runs with none).
//  4. Maintain. Once per committed group, the recommendation layer counts
//     the changed rows toward its N % rebuild threshold (§III-A).
//
// The gates are context-aware channel semaphores, so a writer blocked
// behind a long transaction honors its deadline. An autocommit statement
// holds at most one table gate and the only multi-gate holder is the one
// admitted transaction, so gate acquisition can never form a cycle.

// walSubdir is where a durable database keeps its write-ahead log,
// beside the snapshot generations.
const walSubdir = "wal"

// mutation is one applied tuple-level change (or, for DDL, the statement
// text); kind is the matching wal.Rec* record kind. Rows are carried by
// value, not by RID: row identity on the undo and replay paths is content
// — RIDs do not survive a snapshot reload, which compacts slots.
type mutation struct {
	kind  byte      // wal.RecInsert, RecDelete, RecUpdate or RecStmt
	table string    // target table (tuple kinds)
	row   types.Row // inserted / post-update row
	old   types.Row // deleted / pre-update row
	text  string    // statement source text (RecStmt)
}

// inverse returns the mutation that undoes m. DDL has none.
func inverse(m mutation) mutation {
	switch m.kind {
	case wal.RecInsert:
		m.kind, m.row, m.old = wal.RecDelete, nil, m.row
	case wal.RecDelete:
		m.kind, m.row, m.old = wal.RecInsert, m.old, nil
	case wal.RecUpdate:
		m.row, m.old = m.old, m.row
	}
	return m
}

// apply performs one mutation on the heap and indexes, locating rows by
// content (any one of content-equal duplicates is interchangeable). It is
// how replay redoes a logged record and, through inverse, how a failed
// statement and a rolled-back transaction are undone. A statement record
// re-executes its DDL.
func (e *Engine) apply(m mutation) error {
	if m.kind == wal.RecStmt {
		stmt, err := sql.Parse(m.text)
		if err != nil {
			return err
		}
		_, _, err = e.execMutation(stmt, m.text)
		return err
	}
	tab, err := e.cat.Get(m.table)
	if err != nil {
		return err
	}
	switch m.kind {
	case wal.RecInsert:
		_, err := tab.Insert(m.row)
		return err
	case wal.RecDelete, wal.RecUpdate:
		rid, ok, err := findRow(tab, m.old)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("engine: %q record for a missing row in %q", m.kind, m.table)
		}
		if m.kind == wal.RecDelete {
			return tab.Delete(rid)
		}
		_, err = tab.Update(rid, m.row)
		return err
	}
	return fmt.Errorf("engine: unexpected record kind %q", m.kind)
}

// backOut undoes the changes a failed statement or replayed group applied
// before its error, newest first, and returns that error.
func (e *Engine) backOut(muts []mutation, cause error) error {
	if err := e.undo(muts); err != nil {
		return fmt.Errorf("%w (and undo failed: %w)", cause, err)
	}
	return cause
}

// undo reverses applied mutations newest first: statement atomicity and
// transaction ROLLBACK.
func (e *Engine) undo(muts []mutation) error {
	for i := len(muts) - 1; i >= 0; i-- {
		if muts[i].kind == wal.RecStmt {
			return fmt.Errorf("engine: undo: DDL cannot be undone")
		}
		if err := e.apply(inverse(muts[i])); err != nil {
			return fmt.Errorf("engine: undo in %q: %w", muts[i].table, err)
		}
	}
	return nil
}

// rowsEqual compares two rows by content.
func rowsEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// findRow locates a live row by content and returns its RID. Callers
// hold the table's write gate, so the location stays valid until the
// caller acts on it.
func findRow(tab *catalog.Table, want types.Row) (storage.RID, bool, error) {
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		row, rid, ok, err := it.Next()
		if err != nil {
			return storage.RID{}, false, err
		}
		if !ok {
			return storage.RID{}, false, nil
		}
		if rowsEqual(row, want) {
			return rid, true, nil
		}
	}
}

// commitLocked is the tail of the commit sequence, run under the locks
// the group's writer holds: a group whose apply failed (applyErr) is
// backed out; an applied one is appended to the log as one atomic batch,
// when a log is attached, and then counted toward model maintenance once.
// txn frames the batch TxnBegin..TxnCommit; 0 asks for a fresh id when
// the group has more than one record, so a multi-row statement recovers
// all-or-nothing. A log error fails the commit: the change is applied in
// memory but not durable, and the error says so.
func (e *Engine) commitLocked(txn uint64, muts []mutation, applyErr error) error {
	if applyErr != nil {
		return e.backOut(muts, applyErr)
	}
	if len(muts) == 0 {
		return nil
	}
	if e.log != nil {
		if txn == 0 && len(muts) > 1 {
			txn = e.txnSeq.Add(1)
		}
		if _, err := e.log.AppendBatch(encodeGroup(txn, muts)); err != nil {
			return fmt.Errorf("engine: commit applied but not logged: %w", err)
		}
	}
	return e.runMaintenance(muts)
}

// encodeGroup renders a group as WAL payloads: bare records for txn 0,
// else framed TxnBegin..TxnCommit. AppendBatch writes them contiguously,
// so a crash can only tear the suffix — losing the commit record, and
// with it the whole group on recovery, never a part of it.
func encodeGroup(txn uint64, muts []mutation) [][]byte {
	payloads := make([][]byte, 0, len(muts)+2)
	if txn != 0 {
		payloads = append(payloads, wal.EncodeRecord(nil, wal.Record{Kind: wal.RecTxnBegin, Txn: txn}))
	}
	for _, m := range muts {
		rec := wal.Record{Kind: m.kind, Txn: txn, Table: m.table, Text: m.text}
		if m.row != nil {
			rec.Row = types.EncodeRow(nil, m.row)
		}
		if m.old != nil {
			rec.Old = types.EncodeRow(nil, m.old)
		}
		payloads = append(payloads, wal.EncodeRecord(nil, rec))
	}
	if txn != 0 {
		payloads = append(payloads, wal.EncodeRecord(nil, wal.Record{Kind: wal.RecTxnCommit, Txn: txn}))
	}
	return payloads
}

// decodeMutation is encodeGroup's inverse for one tuple or statement
// record.
func decodeMutation(rec wal.Record) (mutation, error) {
	m := mutation{kind: rec.Kind, table: rec.Table, text: rec.Text}
	var err error
	if rec.Kind == wal.RecInsert || rec.Kind == wal.RecUpdate {
		if m.row, _, err = types.DecodeRow(rec.Row); err != nil {
			return m, err
		}
	}
	if rec.Kind == wal.RecDelete || rec.Kind == wal.RecUpdate {
		if m.old, _, err = types.DecodeRow(rec.Old); err != nil {
			return m, err
		}
	}
	return m, nil
}

// runMaintenance feeds the recommendation layer the changes one committed
// group made: item-update statistics for inserted ratings, then the N %
// rebuild policy once per table. A transaction's statements apply eagerly
// but reach this only at COMMIT, so a rolled-back transaction never
// perturbs model maintenance.
func (e *Engine) runMaintenance(muts []mutation) error {
	type agg struct {
		name  string
		rows  []types.Row
		count int
	}
	var order []string
	per := make(map[string]*agg)
	for _, m := range muts {
		if m.kind == wal.RecStmt {
			continue
		}
		key := strings.ToLower(m.table)
		a := per[key]
		if a == nil {
			a = &agg{name: m.table}
			per[key] = a
			order = append(order, key)
		}
		if m.kind == wal.RecInsert {
			a.rows = append(a.rows, m.row)
		}
		a.count++
	}
	for _, key := range order {
		a := per[key]
		tab, err := e.cat.Get(a.name)
		if err != nil {
			continue // table dropped since; nothing to maintain
		}
		if err := e.maintainTable(a.name, tab, a.rows, a.count); err != nil {
			return err
		}
	}
	return nil
}

// maintainTable records inserted items with every recommender cache on
// the table and counts changed rows toward the N% rebuild threshold.
func (e *Engine) maintainTable(table string, tab *catalog.Table, inserted []types.Row, count int) error {
	for _, r := range e.rec.List() {
		if !strings.EqualFold(r.Table, table) {
			continue
		}
		_, itemIdx, _, err := r.ResolveRatingColumns(tab.Schema)
		if err != nil {
			continue
		}
		for _, row := range inserted {
			if id, ok := row[itemIdx].AsInt(); ok {
				r.Cache().RecordUpdate(id)
			}
		}
	}
	if count == 0 {
		return nil
	}
	return e.rec.NotifyInsert(table, count)
}

// ---- Gates ----

// tableGate returns the write gate for a table, creating it on first use.
// Gates outlive DROP TABLE; a stale gate for a dropped table is harmless.
func (e *Engine) tableGate(name string) chan struct{} {
	key := strings.ToLower(name)
	e.gateMu.Lock()
	defer e.gateMu.Unlock()
	ch, ok := e.tableGates[key]
	if !ok {
		ch = make(chan struct{}, 1)
		e.tableGates[key] = ch
	}
	return ch
}

// acquire takes a gate, giving up when the context is done.
func acquire(ctx context.Context, gate chan struct{}) error {
	select {
	case gate <- struct{}{}:
		return nil
	default:
	}
	select {
	case gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func release(gate chan struct{}) { <-gate }

// ---- The log ----

// walOptions configures a log opened for this engine, wiring its append
// and sync path into the engine's registry.
func (e *Engine) walOptions() wal.Options {
	return wal.Options{
		SyncEvery:    e.cfg.WALSyncEvery,
		SyncInterval: e.cfg.WALSyncInterval,
		Metrics: wal.Metrics{
			Appends:     e.reg.Counter("wal.appends"),
			AppendBytes: e.reg.Counter("wal.append_bytes"),
			Syncs:       e.reg.Counter("wal.syncs"),
			SyncNanos:   e.reg.Histogram("wal.fsync_ns"),
			BatchSize:   e.reg.Histogram("wal.batch_size"),
		},
	}
}

// Checkpoint holds the commit lock exclusively — no statement or
// transaction is in flight — while save writes a snapshot that owns every
// commit the log holds (walSeq is the log's last sequence number, 0 with
// no log), and then points the log at dir: reset in place when it already
// lives there, otherwise opened fresh under dir at walSeq, replacing the
// old one. From then on every commit is logged there. save may read the
// engine but must not execute statements on it: it runs under the lock
// they take.
func (e *Engine) Checkpoint(fs fault.FS, dir string, save func(walSeq uint64) error) error {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	var seq uint64
	if e.log != nil {
		seq = e.log.Seq()
	}
	if err := save(seq); err != nil {
		return err
	}
	if e.log != nil {
		if samePath(dir, e.logDir) {
			return e.log.Reset()
		}
		if err := e.log.Close(); err != nil {
			return err
		}
	}
	l, err := wal.Open(fs, filepath.Join(dir, walSubdir), seq, e.walOptions())
	if err != nil {
		return err
	}
	e.log, e.logDir = l, dir
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

// Recover replays the write-ahead log under dir past afterSeq (the
// loaded snapshot's high-water mark) through the commit sequence, with no
// log attached so nothing is re-logged, and then attaches that log for
// the commits that follow. It reports how many records it replayed; when
// there were none the snapshot owns everything, and the log is reset,
// dropping any torn tail a crash left (a later replay would trip over it
// mid-log).
//
// Records apply only if they contiguously extend the snapshot: when the
// snapshot load fell back past a corrupt newer generation, the log
// continues that newer timeline and replaying it would interleave
// histories — the older checkpoint alone is the safe recovery. Records
// tagged with a transaction id are buffered until their TxnCommit: a
// group whose commit record is missing (a crash tore the batch's suffix)
// or that aborted never happened.
func (e *Engine) Recover(fs fault.FS, dir string, afterSeq uint64) (int, error) {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	walDir := filepath.Join(dir, walSubdir)
	type record struct {
		seq     uint64
		payload []byte
	}
	var records []record
	last, err := wal.Replay(fs, walDir, afterSeq, func(seq uint64, payload []byte) error {
		records = append(records, record{seq, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(records) > 0 && records[0].seq != afterSeq+1 {
		records, last = nil, afterSeq
	}
	pending := make(map[uint64][]wal.Record)
	for _, r := range records {
		rec, err := wal.DecodeRecord(r.payload)
		if err != nil {
			return 0, fmt.Errorf("record %d: %w", r.seq, err)
		}
		switch rec.Kind {
		case wal.RecTxnBegin:
			pending[rec.Txn] = nil
		case wal.RecTxnCommit:
			if err := e.replayLocked(rec.Txn, pending[rec.Txn]); err != nil {
				return 0, fmt.Errorf("transaction %d: %w", rec.Txn, err)
			}
			delete(pending, rec.Txn)
		case wal.RecTxnAbort:
			delete(pending, rec.Txn)
		default:
			if rec.Txn != 0 {
				pending[rec.Txn] = append(pending[rec.Txn], rec)
				continue
			}
			if err := e.replayLocked(0, []wal.Record{rec}); err != nil {
				return 0, fmt.Errorf("record %d: %w", r.seq, err)
			}
		}
	}
	l, err := wal.Open(fs, walDir, last, e.walOptions())
	if err != nil {
		return 0, err
	}
	e.log, e.logDir = l, dir
	if len(records) == 0 {
		if err := l.Reset(); err != nil {
			return 0, fmt.Errorf("clearing recovered log: %w", err)
		}
	}
	return len(records), nil
}

// replayLocked redoes one committed group of logged records: apply each,
// then the rest of the commit sequence, so maintenance runs once for the
// group as it did when the group first committed.
func (e *Engine) replayLocked(txn uint64, recs []wal.Record) error {
	muts := make([]mutation, 0, len(recs))
	var err error
	for _, rec := range recs {
		var m mutation
		if m, err = decodeMutation(rec); err != nil {
			break
		}
		if err = e.apply(m); err != nil {
			break
		}
		muts = append(muts, m)
	}
	return e.commitLocked(txn, muts, err)
}

// LogState reports where the write-ahead log lives and its last sequence
// number; attached is false while the engine is purely in memory.
func (e *Engine) LogState() (dir string, seq uint64, attached bool) {
	e.commitMu.RLock()
	defer e.commitMu.RUnlock()
	if e.log == nil {
		return "", 0, false
	}
	return e.logDir, e.log.Seq(), true
}

// SyncLog forces grouped, not-yet-synced commits to stable storage.
func (e *Engine) SyncLog() error {
	e.commitMu.RLock()
	defer e.commitMu.RUnlock()
	if e.log == nil {
		return fmt.Errorf("engine: no write-ahead log attached; call SaveTo or OpenDir first")
	}
	return e.log.Sync()
}

// ---- Explicit transactions ----

// Txn is one open multi-statement transaction. Statements apply eagerly
// — the transaction reads its own writes — and are staged as mutations
// for the commit sequence at COMMIT and for undo on ROLLBACK. It holds
// the transaction gate and the commit lock shared from Begin to
// resolution, so a checkpoint never captures its uncommitted writes, and
// each touched table's write gate from first touch, which is what keeps
// eager apply sound: nothing else mutates a touched table meanwhile. The
// first touch also pins the table's begin-state heap snapshot, so the
// copy-on-write machinery keeps every pre-image page reachable for
// concurrent readers until the transaction resolves.
//
// A Txn is not safe for concurrent use, and must be resolved exactly once
// with Commit or Rollback.
type Txn struct {
	e      *Engine
	id     uint64
	muts   []mutation
	tables map[string]touched // by lower-cased name
}

// touched is a table a transaction has written: its gate is held and its
// begin-state snapshot pinned.
type touched struct {
	gate chan struct{}
	pin  *storage.Snapshot
}

// Begin opens a transaction. It blocks until any other explicit
// transaction resolves; ctx bounds the wait.
func (e *Engine) Begin(ctx context.Context) (*Txn, error) {
	if err := acquire(ctx, e.txnGate); err != nil {
		return nil, err
	}
	e.commitMu.RLock()
	return &Txn{e: e, id: e.txnSeq.Add(1), tables: make(map[string]touched)}, nil
}

// touch takes a table's write gate and pins its snapshot on first touch.
func (t *Txn) touch(ctx context.Context, name string) error {
	key := strings.ToLower(name)
	if _, ok := t.tables[key]; ok {
		return nil
	}
	tab, err := t.e.cat.Get(name)
	if err != nil {
		return err
	}
	gate := t.e.tableGate(key)
	if err := acquire(ctx, gate); err != nil {
		return err
	}
	t.tables[key] = touched{gate: gate, pin: tab.Heap.Snapshot()}
	return nil
}

// ExecParsedCtx runs one statement inside the transaction. DML applies
// eagerly and is staged for COMMIT; SELECT/EXPLAIN read the current state
// and therefore see the transaction's own writes. DDL and nested
// transaction control are refused. A statement that fails part-way is
// backed out; the transaction stays open with its earlier statements
// intact.
func (t *Txn) ExecParsedCtx(ctx context.Context, stmt sql.Statement, text string) (Result, error) {
	switch stmt.(type) {
	case *sql.Select, *sql.Explain:
		return t.e.execReadOnlyCtx(ctx, stmt)
	case *sql.Begin:
		return Result{}, fmt.Errorf("engine: BEGIN inside an open transaction")
	}
	table := dmlTable(stmt)
	if table == "" {
		return Result{}, fmt.Errorf("engine: %s is not allowed inside a transaction", stmtName(stmt))
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("engine: statement not started: %w", err)
	}
	if err := t.e.refuseModelWrite(stmt); err != nil {
		return Result{}, err
	}
	if err := t.touch(ctx, table); err != nil {
		return Result{}, err
	}
	res, muts, err := t.e.execMutation(stmt, text)
	if err != nil {
		return res, t.e.backOut(muts, err)
	}
	t.muts = append(t.muts, muts...)
	return res, nil
}

// Commit runs the commit sequence over the staged group — one atomic WAL
// batch, then maintenance — and releases the transaction's locks. On a
// log error the writes remain applied in memory but are not durable.
func (t *Txn) Commit() error {
	defer t.release()
	return t.e.commitLocked(t.id, t.muts, nil)
}

// Rollback undoes every staged mutation newest first and releases the
// transaction's locks.
func (t *Txn) Rollback() error {
	defer t.release()
	return t.e.undo(t.muts)
}

// release unpins and ungates every touched table, then drops the commit
// lock and the transaction gate Begin took.
func (t *Txn) release() {
	for _, tt := range t.tables {
		tt.pin.Close()
		release(tt.gate)
	}
	t.tables = nil
	//lint:ignore locksafe the matching RLock is in Begin; recdb.Tx resolves a Txn exactly once
	t.e.commitMu.RUnlock()
	release(t.e.txnGate)
}

// dmlTable names the table a DML statement writes, or "" for any other
// statement.
func dmlTable(stmt sql.Statement) string {
	switch s := stmt.(type) {
	case *sql.Insert:
		return s.Table
	case *sql.Delete:
		return s.Table
	case *sql.Update:
		return s.Table
	}
	return ""
}

// stmtName renders a statement kind for error messages.
func stmtName(stmt sql.Statement) string {
	switch stmt.(type) {
	case *sql.Insert:
		return "INSERT"
	case *sql.Update:
		return "UPDATE"
	case *sql.Delete:
		return "DELETE"
	case *sql.CreateTable:
		return "CREATE TABLE"
	case *sql.DropTable:
		return "DROP TABLE"
	case *sql.CreateIndex:
		return "CREATE INDEX"
	case *sql.CreateRecommender:
		return "CREATE RECOMMENDER"
	case *sql.DropRecommender:
		return "DROP RECOMMENDER"
	case *sql.Commit:
		return "COMMIT"
	case *sql.Rollback:
		return "ROLLBACK"
	case *sql.Begin:
		return "BEGIN"
	}
	return fmt.Sprintf("%T", stmt)
}
