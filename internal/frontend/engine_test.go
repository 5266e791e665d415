package frontend_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/frontend"
	"recdb/internal/server"
	"recdb/internal/wire"
)

// Engine-only tests: what the front end promises a backend with
// per-connection state — the session opens on accept and closes after
// the worker exits, so a dropped client's transaction rolls back — and
// recdb-server's checkpoint after the drain. The router holds no
// per-connection state and denies transactions.

// seededEngine serves a small ratings table from an embedded engine and
// returns the database (for looking behind the wire) and the address.
func seededEngine(t *testing.T, hook func(sql string)) (*recdb.DB, string) {
	t.Helper()
	db := recdb.Open()
	t.Cleanup(func() { db.Close() })
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	db.MustExec(`INSERT INTO ratings VALUES (1, 1, 4.0), (1, 2, 3.0), (2, 1, 5.0)`)
	srv := server.New(db, server.Options{})
	frontend.SetExecHookForTest(srv.Frontend, hook)
	return db, serve(t, srv)
}

// TestGracefulShutdown pins the drain contract: an in-flight statement
// completes with its full answer, and the final checkpoint lands.
func TestGracefulShutdown(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "home")
	db := recdb.Open()
	db.MustExec(`CREATE TABLE kv (k INT, v INT)`)
	db.MustExec(`INSERT INTO kv VALUES (1, 1), (2, 2), (3, 3)`)
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	genBefore := db.Durability().Generation

	srv := server.New(db, server.Options{})
	// Hold the statement in flight long enough for Shutdown to arrive
	// while it runs.
	inFlight := make(chan struct{})
	frontend.SetExecHookForTest(srv.Frontend, func(sql string) {
		if strings.Contains(sql, "FROM kv A") {
			close(inFlight)
			time.Sleep(200 * time.Millisecond)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	queryDone := make(chan error, 1)
	go func() {
		rows, err := c.Query(context.Background(), `SELECT A.k FROM kv A, kv B, kv C`)
		if err == nil && rows.Len() != 27 {
			err = fmt.Errorf("drained query returned %d rows, want 27", rows.Len())
		}
		queryDone <- err
	}()
	<-inFlight

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-queryDone; err != nil {
		t.Fatalf("in-flight query: %v", err)
	}
	if gen := db.Durability().Generation; gen <= genBefore {
		t.Fatalf("no final checkpoint: generation %d -> %d", genBefore, gen)
	}
	db.Close()

	// New connections during/after drain are refused.
	if _, err := client.Dial(ln.Addr().String()); err == nil {
		t.Fatal("dial after shutdown succeeded")
	}
}

// ratingCount reads COUNT(*) for one uid straight through the embedded
// DB, bypassing the wire protocol.
func ratingCount(t *testing.T, db *recdb.DB, uid int) int64 {
	t.Helper()
	rows, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM ratings WHERE uid = %d", uid))
	if err != nil || !rows.Next() {
		t.Fatalf("counting uid %d: %v", uid, err)
	}
	var n int64
	if err := rows.Scan(&n); err != nil {
		t.Fatal(err)
	}
	return n
}

// openSnapshots reports the ratings heap's open snapshot handles — the
// pins a transaction holds while in flight and must release when done.
func openSnapshots(t *testing.T, db *recdb.DB) int {
	t.Helper()
	tab, err := db.Engine().Catalog().Get("ratings")
	if err != nil {
		t.Fatal(err)
	}
	return tab.Heap.OpenSnapshots()
}

// waitRollback polls until the dropped session's transaction is rolled
// back: its rows gone, its table gate free, and its snapshot pins
// released.
func waitRollback(t *testing.T, db *recdb.DB, uid int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ratingCount(t, db, uid) == 0 && openSnapshots(t, db) == 0 {
			// The table gate must be free again for the next writer.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			_, err := db.ExecContext(ctx, fmt.Sprintf("DELETE FROM ratings WHERE uid = %d", uid))
			cancel()
			if err == nil {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("transaction for uid %d not rolled back: %d rows, %d open snapshots",
		uid, ratingCount(t, db, uid), openSnapshots(t, db))
}

func TestTransactionOverWire(t *testing.T) {
	db, addr := seededEngine(t, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// COMMIT makes the transaction's writes visible and durable.
	if _, err := c.Exec(ctx, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO ratings VALUES (90, 1, 5.0); INSERT INTO ratings VALUES (90, 2, 4.0)"); err != nil {
		t.Fatal(err)
	}
	// The session's own reads see the uncommitted writes.
	rows, err := c.Query(ctx, "SELECT COUNT(*) FROM ratings WHERE uid = 90")
	if err != nil || !rows.Next() {
		t.Fatalf("in-txn read: %v", err)
	}
	var n int64
	if err := rows.Scan(&n); err != nil || n != 2 {
		t.Fatalf("in-txn count = %d, %v (want 2)", n, err)
	}
	if _, err := c.Exec(ctx, "COMMIT"); err != nil {
		t.Fatal(err)
	}
	if got := ratingCount(t, db, 90); got != 2 {
		t.Fatalf("committed rows = %d, want 2", got)
	}

	// ROLLBACK undoes them.
	if _, err := c.Exec(ctx, "BEGIN; INSERT INTO ratings VALUES (91, 1, 5.0); ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := ratingCount(t, db, 91); got != 0 {
		t.Fatalf("rolled-back rows = %d, want 0", got)
	}
	if got := openSnapshots(t, db); got != 0 {
		t.Fatalf("open snapshots after wire transactions = %d, want 0", got)
	}
}

// TestSessionDropRollsBackTransaction kills a client that is sitting in
// an open transaction and asserts the server rolls it back: the writes
// vanish, the table's write gate frees, and the snapshot pins release.
func TestSessionDropRollsBackTransaction(t *testing.T) {
	db, addr := seededEngine(t, nil)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Exec(ctx, "BEGIN; INSERT INTO ratings VALUES (99, 1, 5.0)"); err != nil {
		t.Fatal(err)
	}
	if got := ratingCount(t, db, 99); got != 1 {
		t.Fatalf("in-flight transaction rows = %d, want 1", got)
	}
	// Drop the connection with the transaction still open.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitRollback(t, db, 99)
}

// TestSessionDropDuringCommit drops the connection at the moment COMMIT
// starts executing. The commit itself must stay atomic — afterwards the
// transaction is either fully committed or fully rolled back, with all
// locks and pins released either way.
func TestSessionDropDuringCommit(t *testing.T) {
	var victimMu sync.Mutex
	var victim net.Conn
	var once sync.Once
	db, addr := seededEngine(t, func(sql string) {
		if strings.Contains(sql, "COMMIT") {
			once.Do(func() {
				victimMu.Lock()
				defer victimMu.Unlock()
				if victim != nil {
					_ = victim.Close()
				}
			})
		}
	})

	// The client wrapper serializes each request under a mutex the hook
	// would also need, so this test speaks the wire protocol over a bare
	// conn it can sever at any moment.
	c := dialRaw(t, addr)
	victimMu.Lock()
	victim = c.Conn
	victimMu.Unlock()
	c.handshake()
	c.send(wire.TypeExec, 1, "BEGIN; INSERT INTO ratings VALUES (98, 1, 5.0); INSERT INTO ratings VALUES (98, 2, 4.0)")
	if got := c.terminals(1)[1]; got != "ok" {
		t.Fatalf("opening the transaction answered %q", got)
	}
	// The connection dies as COMMIT starts executing; its answer can
	// never arrive.
	c.send(wire.TypeExec, 2, "COMMIT")
	if _, _, err := c.read(); err == nil {
		t.Fatal("COMMIT answered on a severed connection")
	}

	// Whatever raced, atomicity holds: 0 or 2 rows, never 1 — and the
	// locks and pins must come free.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if openSnapshots(t, db) == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := openSnapshots(t, db); got != 0 {
		t.Fatalf("open snapshots after dropped commit = %d, want 0", got)
	}
	if got := ratingCount(t, db, 98); got != 0 && got != 2 {
		t.Fatalf("dropped commit left a partial transaction: %d rows", got)
	}
	// The table accepts new writers again.
	ctx2, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := db.ExecContext(ctx2, "DELETE FROM ratings WHERE uid = 98"); err != nil {
		t.Fatalf("table still locked after dropped commit: %v", err)
	}
}
