package recdb

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// count is a test helper: the number of rows a query returns in its
// single int column.
func count(t *testing.T, q interface {
	Query(string) (*Rows, error)
}, query string) int64 {
	t.Helper()
	rows, err := q.Query(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	if !rows.Next() {
		t.Fatalf("%s: no rows", query)
	}
	var n int64
	if err := rows.Scan(&n); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTxCommit(t *testing.T) {
	db := newDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 1, 5.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 2, 4.0)"); err != nil {
		t.Fatal(err)
	}
	// The transaction reads its own writes.
	if n := count(t, tx, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 2 {
		t.Fatalf("uncommitted rows visible to tx = %d, want 2", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 2 {
		t.Fatalf("committed rows = %d, want 2", n)
	}
	// Finished transactions reject further use; Rollback is a no-op.
	if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 3, 3.0)"); err != ErrTxDone {
		t.Fatalf("Exec after Commit: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatalf("Rollback after Commit: %v", err)
	}
}

func TestTxRollback(t *testing.T) {
	db := newDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (8, 1, 5.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("UPDATE ratings SET ratingval = 0 WHERE uid = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM ratings WHERE uid = 3"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 8"); n != 0 {
		t.Fatalf("rolled-back insert survived: %d rows", n)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 2 AND ratingval = 0"); n != 0 {
		t.Fatalf("rolled-back update survived: %d rows", n)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 3"); n != 2 {
		t.Fatalf("rolled-back delete survived: %d of 2 rows left", n)
	}
}

func TestTxRejectsDDLAndNestedBegin(t *testing.T) {
	db := newDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec("CREATE TABLE x (a INT)"); err == nil {
		t.Fatal("DDL inside a transaction should fail")
	}
	if _, err := tx.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	if _, err := tx.Exec("COMMIT"); err == nil {
		t.Fatal("SQL COMMIT through Tx.Exec should fail")
	}
	// The rejected statements must not have poisoned the transaction.
	if _, err := tx.Exec("INSERT INTO ratings VALUES (7, 7, 1.0)"); err != nil {
		t.Fatal(err)
	}
}

func TestTxStatementFailureUndone(t *testing.T) {
	db := newDB(t)
	db.MustExec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
	db.MustExec("INSERT INTO kv VALUES (1, 10)")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	// A multi-row statement that fails mid-way is backed out entirely,
	// and the transaction stays usable.
	if _, err := tx.Exec("INSERT INTO kv VALUES (3, 30), (1, 99)"); err == nil {
		t.Fatal("duplicate pk should fail")
	}
	if n := count(t, tx, "SELECT COUNT(*) FROM kv"); n != 2 {
		t.Fatalf("rows after failed statement = %d, want 2", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM kv"); n != 2 {
		t.Fatalf("rows after commit = %d, want 2", n)
	}
}

func TestExecRejectsTxnControl(t *testing.T) {
	db := newDB(t)
	for _, stmt := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := db.Exec(stmt); err == nil || !strings.Contains(err.Error(), "Session") {
			t.Fatalf("Exec(%q) = %v, want session-pointing error", stmt, err)
		}
	}
}

func TestSessionTxnControl(t *testing.T) {
	db := newDB(t)
	sess := db.NewSession()
	defer sess.Close()

	if _, err := sess.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT without BEGIN should fail")
	}
	if _, err := sess.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if !sess.InTransaction() {
		t.Fatal("session should be in a transaction after BEGIN")
	}
	if _, err := sess.Exec("BEGIN"); err == nil {
		t.Fatal("nested BEGIN should fail")
	}
	if _, err := sess.Exec("INSERT INTO ratings VALUES (9, 1, 5.0)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 0 {
		t.Fatalf("rolled-back insert survived: %d rows", n)
	}

	// One Exec call can carry a whole transaction.
	if _, err := sess.Exec(`
		BEGIN;
		INSERT INTO ratings VALUES (9, 1, 5.0);
		INSERT INTO ratings VALUES (9, 2, 4.0);
		COMMIT;
	`); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 2 {
		t.Fatalf("committed rows = %d, want 2", n)
	}
}

func TestSessionCloseRollsBack(t *testing.T) {
	db := newDB(t)
	sess := db.NewSession()
	if _, err := sess.Exec("BEGIN; INSERT INTO ratings VALUES (9, 1, 5.0);"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 0 {
		t.Fatalf("abandoned transaction survived session close: %d rows", n)
	}
	if _, err := sess.Exec("SELECT uid FROM ratings"); err != ErrSessionClosed {
		t.Fatalf("Exec on closed session: %v", err)
	}
}

func TestExecScriptTransaction(t *testing.T) {
	db := newDB(t)
	if _, err := db.ExecScript(`
		BEGIN;
		INSERT INTO ratings VALUES (9, 1, 5.0);
		ROLLBACK;
		BEGIN;
		INSERT INTO ratings VALUES (9, 2, 4.0);
		COMMIT;
	`); err != nil {
		t.Fatal(err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 1 {
		t.Fatalf("rows after script = %d, want 1", n)
	}

	// A script that ends mid-transaction is rolled back and reports it.
	_, err := db.ExecScript(`
		BEGIN;
		INSERT INTO ratings VALUES (9, 3, 3.0);
	`)
	if err == nil || !strings.Contains(err.Error(), "open transaction") {
		t.Fatalf("dangling script transaction: %v", err)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM ratings WHERE uid = 9"); n != 1 {
		t.Fatalf("dangling transaction leaked rows: %d, want 1", n)
	}
}

func TestTxDurableAtomicity(t *testing.T) {
	dir := t.TempDir()
	db := Open()
	db.MustExec("CREATE TABLE a (k INT PRIMARY KEY)")
	db.MustExec("CREATE TABLE b (k INT PRIMARY KEY)")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	// A committed transaction spanning two tables survives reopen whole.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO a VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO b VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A rolled-back transaction leaves no durable trace.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO a VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := count(t, re, "SELECT COUNT(*) FROM a"); n != 1 {
		t.Fatalf("table a after reopen = %d rows, want 1", n)
	}
	if n := count(t, re, "SELECT COUNT(*) FROM b"); n != 1 {
		t.Fatalf("table b after reopen = %d rows, want 1", n)
	}
}

func TestTxReleasesSnapshotPins(t *testing.T) {
	db := newDB(t)
	heap := func() interface{ OpenSnapshots() int } {
		tab, err := db.Engine().Catalog().Get("ratings")
		if err != nil {
			t.Fatal(err)
		}
		return tab.Heap
	}
	for _, finish := range []func(*Tx) error{(*Tx).Commit, (*Tx).Rollback} {
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 9, 1.0)"); err != nil {
			t.Fatal(err)
		}
		if got := heap().OpenSnapshots(); got != 1 {
			t.Fatalf("open snapshots during tx = %d, want 1", got)
		}
		if err := finish(tx); err != nil {
			t.Fatal(err)
		}
		if got := heap().OpenSnapshots(); got != 0 {
			t.Fatalf("open snapshots after finish = %d, want 0", got)
		}
	}
}

func TestTxSerializesWithSecondTx(t *testing.T) {
	db := newDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	// A second transaction cannot start while one is open.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := db.BeginContext(ctx); err == nil {
		t.Fatal("second concurrent transaction should block until deadline")
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatalf("Begin after finish: %v", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
}

func TestTxBlocksSameTableWriterNotOthers(t *testing.T) {
	db := newDB(t)
	db.MustExec("CREATE TABLE other (k INT PRIMARY KEY)")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 1, 5.0)"); err != nil {
		t.Fatal(err)
	}
	// A writer to an untouched table proceeds while the tx is open.
	if _, err := db.Exec("INSERT INTO other VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// A writer to the locked table blocks until its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := db.ExecContext(ctx, "INSERT INTO ratings VALUES (9, 2, 4.0)"); err == nil {
		t.Fatal("same-table autocommit write should block behind the tx")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// After commit the blocked table is writable again.
	if _, err := db.Exec("INSERT INTO ratings VALUES (9, 2, 4.0)"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAutocommitDisjointTables exercises the per-table gates
// under the race detector: writers to different tables run concurrently
// with readers and with an explicit transaction cycling on a third table.
func TestConcurrentAutocommitDisjointTables(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustExec("CREATE TABLE t1 (k INT PRIMARY KEY, v INT)")
	db.MustExec("CREATE TABLE t2 (k INT PRIMARY KEY, v INT)")
	db.MustExec("CREATE TABLE t3 (k INT PRIMARY KEY, v INT)")
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			table := "t1"
			if w == 1 {
				table = "t2"
			}
			for i := 0; i < perWorker; i++ {
				db.MustExec("INSERT INTO " + table + " VALUES (" + strconv.Itoa(i) + ", 0)")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			tx, err := db.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := tx.Exec("INSERT INTO t3 VALUES (" + strconv.Itoa(i) + ", 0)"); err != nil {
				t.Error(err)
				tx.Rollback()
				return
			}
			var ferr error
			if i%2 == 0 {
				ferr = tx.Commit()
			} else {
				ferr = tx.Rollback()
			}
			if ferr != nil {
				t.Error(ferr)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perWorker; i++ {
			if _, err := db.Query("SELECT COUNT(*) FROM t1"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if n := count(t, db, "SELECT COUNT(*) FROM t1"); n != perWorker {
		t.Fatalf("t1 rows = %d, want %d", n, perWorker)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM t2"); n != perWorker {
		t.Fatalf("t2 rows = %d, want %d", n, perWorker)
	}
	if n := count(t, db, "SELECT COUNT(*) FROM t3"); n != perWorker/2 {
		t.Fatalf("t3 rows = %d, want %d committed", n, perWorker/2)
	}
}
