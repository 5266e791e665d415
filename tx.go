package recdb

import (
	"context"
	"errors"
	"fmt"

	"recdb/internal/engine"
	"recdb/internal/sql"
)

// ErrTxDone is returned by operations on a transaction that has already
// been committed or rolled back.
var ErrTxDone = errors.New("recdb: transaction already committed or rolled back")

// ErrSessionClosed is returned by operations on a closed Session.
var ErrSessionClosed = errors.New("recdb: session is closed")

// ---- Tx ----

// Tx is an explicit multi-statement transaction. Its writes are applied
// eagerly (the transaction reads its own writes) but reach the
// write-ahead log only at Commit, as one atomic record group: after a
// crash, recovery replays either all of the transaction or none of it.
// Rollback undoes the applied writes in memory.
//
// A transaction pins a snapshot of every table it touches (so concurrent
// readers keep their consistent view), holds the engine's commit lock
// shared for its whole lifetime (so a SaveTo checkpoint can never
// capture uncommitted writes), and takes each touched table's write gate
// on first touch. Only one explicit transaction runs at a time;
// autocommit writers to untouched tables proceed concurrently. A Tx is
// not safe for concurrent use by multiple goroutines.
//
// Always finish a transaction: an abandoned Tx holds its locks forever.
// Rollback after Commit is a no-op, so `defer tx.Rollback()` is the
// idiomatic cleanup.
type Tx struct {
	db   *DB
	etx  *engine.Txn
	done bool
}

// Begin opens an explicit transaction. It blocks until any other
// explicit transaction finishes.
func (db *DB) Begin() (*Tx, error) {
	return db.BeginContext(context.Background())
}

// BeginContext is Begin under a context: a deadline bounds the wait for
// the transaction-admission gate.
func (db *DB) BeginContext(ctx context.Context) (*Tx, error) {
	etx, err := db.eng.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Tx{db: db, etx: etx}, nil
}

// Exec runs one statement inside the transaction: INSERT, DELETE,
// UPDATE, or a read. DDL and nested BEGIN are rejected; use Commit and
// Rollback (not SQL text) to finish the transaction.
func (tx *Tx) Exec(query string) (Result, error) {
	return tx.ExecContext(context.Background(), query)
}

// ExecContext is Exec under a context.
func (tx *Tx) ExecContext(ctx context.Context, query string) (Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return Result{}, err
	}
	switch stmt.(type) {
	case *sql.Commit, *sql.Rollback:
		return Result{}, fmt.Errorf("recdb: use Tx.Commit or Tx.Rollback to finish a Tx")
	}
	return tx.execParsed(ctx, stmt, query)
}

// execParsed runs one pre-parsed statement inside the transaction.
func (tx *Tx) execParsed(ctx context.Context, stmt sql.Statement, text string) (Result, error) {
	if tx.done {
		return Result{}, ErrTxDone
	}
	r, err := tx.etx.ExecParsedCtx(ctx, stmt, text)
	return Result{RowsAffected: r.RowsAffected}, err
}

// Query runs a SELECT inside the transaction. Because writes apply
// eagerly, the transaction sees its own uncommitted writes.
func (tx *Tx) Query(query string) (*Rows, error) {
	return tx.QueryContext(context.Background(), query)
}

// QueryContext is Query under a context.
func (tx *Tx) QueryContext(ctx context.Context, query string) (*Rows, error) {
	if tx.done {
		return nil, ErrTxDone
	}
	return tx.db.QueryContext(ctx, query)
}

// Commit makes the transaction's writes durable as one atomic WAL
// group and releases its locks and snapshot pins. If the WAL append
// fails the writes remain applied in memory but are not guaranteed to
// survive a crash; the error says so.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	return tx.etx.Commit()
}

// Rollback undoes the transaction's writes and releases its locks and
// snapshot pins. Rolling back a finished transaction is a no-op, so it
// is safe to defer.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	return tx.etx.Rollback()
}

// ---- Session ----

// Session is a statement-stream context that makes the SQL transaction
// control statements (BEGIN/COMMIT/ROLLBACK) work: it tracks the one
// open transaction between ExecContext calls and routes statements
// through it. The server gives every client connection its own Session;
// ExecScript runs each script through an ephemeral one. Closing a
// session rolls back its open transaction — that is how a client that
// disconnects mid-transaction is cleaned up. A Session is not safe for
// concurrent use by multiple goroutines.
type Session struct {
	db     *DB
	tx     *Tx
	closed bool
}

// NewSession opens a session. Close it when done; Close rolls back any
// transaction left open.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// Exec runs a semicolon-separated statement stream in the session — see
// ExecContext.
func (s *Session) Exec(script string) (Result, error) {
	return s.ExecContext(context.Background(), script)
}

// ExecContext runs a semicolon-separated statement stream in the
// session, stopping at the first error. BEGIN opens a transaction that
// stays open across calls until COMMIT or ROLLBACK; statements in
// between run inside it.
func (s *Session) ExecContext(ctx context.Context, script string) (Result, error) {
	if s.closed {
		return Result{}, ErrSessionClosed
	}
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return Result{}, err
	}
	var total Result
	for _, st := range stmts {
		r, err := s.execParsed(ctx, st.Stmt, st.Text)
		if err != nil {
			return total, err
		}
		total.RowsAffected += r.RowsAffected
	}
	return total, nil
}

// execParsed dispatches one statement: transaction control mutates the
// session's transaction state, everything else runs in the open
// transaction if there is one and autocommits otherwise.
func (s *Session) execParsed(ctx context.Context, stmt sql.Statement, text string) (Result, error) {
	if s.closed {
		return Result{}, ErrSessionClosed
	}
	switch stmt.(type) {
	case *sql.Begin:
		if s.tx != nil {
			return Result{}, fmt.Errorf("recdb: BEGIN: a transaction is already open in this session")
		}
		tx, err := s.db.BeginContext(ctx)
		if err != nil {
			return Result{}, err
		}
		s.tx = tx
		return Result{}, nil
	case *sql.Commit:
		if s.tx == nil {
			return Result{}, fmt.Errorf("recdb: COMMIT without an open transaction")
		}
		tx := s.tx
		s.tx = nil
		return Result{}, tx.Commit()
	case *sql.Rollback:
		if s.tx == nil {
			return Result{}, fmt.Errorf("recdb: ROLLBACK without an open transaction")
		}
		tx := s.tx
		s.tx = nil
		return Result{}, tx.Rollback()
	}
	if s.tx != nil {
		return s.tx.execParsed(ctx, stmt, text)
	}
	r, err := s.db.eng.ExecParsedCtx(ctx, stmt, text)
	return Result{RowsAffected: r.RowsAffected}, err
}

// QueryContext runs a SELECT in the session; inside a transaction it
// sees the transaction's own writes.
func (s *Session) QueryContext(ctx context.Context, query string) (*Rows, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.tx != nil {
		return s.tx.QueryContext(ctx, query)
	}
	return s.db.QueryContext(ctx, query)
}

// Query is QueryContext with a background context.
func (s *Session) Query(query string) (*Rows, error) {
	return s.QueryContext(context.Background(), query)
}

// InTransaction reports whether the session has an open transaction.
func (s *Session) InTransaction() bool { return s.tx != nil }

// Close ends the session, rolling back any open transaction. It is
// idempotent; the error (if any) is the rollback's.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.tx != nil {
		tx := s.tx
		s.tx = nil
		return tx.Rollback()
	}
	return nil
}
