package recdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/persist"
	"recdb/internal/wal"
)

// The crash-sweep workload: seed a database with a primary-keyed table,
// ratings, and a recommender; checkpoint; commit through the WAL;
// checkpoint again; commit more. Faults are injected at every mutating
// I/O operation along the way.
const crashSeedRatings = 5

const crashSeedScript = `
	CREATE TABLE users (uid INT PRIMARY KEY, name TEXT);
	CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT);
	INSERT INTO users VALUES (1, 'a'), (2, 'b'), (3, 'c');
	INSERT INTO ratings VALUES (1, 1, 4.5), (1, 2, 3.0), (2, 1, 5.0), (2, 3, 2.5), (3, 2, 4.0);
	CREATE RECOMMENDER CrashRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF;
`

// crashProgress records how far the workload got before the fault.
type crashProgress struct {
	saved        bool // the first checkpoint was acknowledged
	acked        int  // ratings inserts acknowledged since then
	txnCommitted bool // the uid-9 two-row transaction's Commit returned
}

// runCrashWorkload drives the workload over fs, stopping at the first
// error, and reports what was acknowledged.
func runCrashWorkload(fs fault.FS) (crashProgress, error) {
	var p crashProgress
	db := Open()
	db.fs = fs
	defer db.Close()
	if _, err := db.ExecScript(crashSeedScript); err != nil {
		return p, err
	}
	if err := db.SaveTo("db"); err != nil {
		return p, err
	}
	p.saved = true
	ack := func(stmt string) error {
		if _, err := db.Exec(stmt); err != nil {
			return err
		}
		p.acked++
		return nil
	}
	if err := ack("INSERT INTO ratings VALUES (7, 1, 3.5)"); err != nil {
		return p, err
	}
	if err := ack("INSERT INTO ratings VALUES (7, 2, 4.0)"); err != nil {
		return p, err
	}
	if err := db.SaveTo("db"); err != nil {
		return p, err
	}
	if err := ack("INSERT INTO ratings VALUES (8, 1, 2.0)"); err != nil {
		return p, err
	}
	// An explicit transaction: two inserts that must reach the log as one
	// atomic group, so recovery sees both or neither — never one.
	tx, err := db.Begin()
	if err != nil {
		return p, err
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 1, 1.0)"); err != nil {
		_ = tx.Rollback()
		return p, err
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (9, 2, 2.0)"); err != nil {
		_ = tx.Rollback()
		return p, err
	}
	if err := tx.Commit(); err != nil {
		return p, err
	}
	p.txnCommitted = true
	p.acked += 2
	// A rolled-back transaction: its writes never touch the log, so no
	// recovery at any fault point may surface them.
	tx, err = db.Begin()
	if err != nil {
		return p, err
	}
	if _, err := tx.Exec("INSERT INTO ratings VALUES (10, 1, 1.0)"); err != nil {
		_ = tx.Rollback()
		return p, err
	}
	if err := tx.Rollback(); err != nil {
		return p, err
	}
	// One more autocommit write so fault points land after the commit too.
	if err := ack("INSERT INTO ratings VALUES (8, 2, 1.5)"); err != nil {
		return p, err
	}
	return p, nil
}

// verifyRecovery reopens the database after the crash and asserts the
// durability invariants for the given fault mode.
func verifyRecovery(t *testing.T, fs fault.FS, p crashProgress, mode fault.Mode, tag string) {
	t.Helper()
	db, err := openDirFS(fs, "db", engine.Config{})
	if err != nil {
		// Failing to recover is allowed in exactly two situations: the
		// first checkpoint was never acknowledged (nothing durable was
		// promised — the error just has to be a clean one, which reaching
		// this line without a panic demonstrates), or silent corruption
		// (flip mode) destroyed the only generation — in which case the
		// checksums must have produced a typed error, not garbage.
		if !p.saved {
			return
		}
		var pce *persist.CorruptError
		var wce *wal.CorruptError
		if mode == fault.ModeFlip && (errors.As(err, &pce) || errors.As(err, &wce) || errors.Is(err, persist.ErrNoSnapshot)) {
			return
		}
		t.Fatalf("%s: recovery failed: %v (progress %+v)", tag, err, p)
	}
	defer db.Close()

	rows, err := db.Query("SELECT COUNT(*) FROM ratings")
	if err != nil {
		t.Fatalf("%s: counting ratings: %v", tag, err)
	}
	rows.Next()
	var n int64
	if err := rows.Scan(&n); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	want := int64(crashSeedRatings + p.acked)
	if mode == fault.ModeFlip {
		// Silent corruption may cost the newest generation or a WAL
		// suffix: any consistent prefix of the acknowledged history is
		// acceptable, a superset or invented state is not.
		if n < crashSeedRatings || n > want {
			t.Fatalf("%s: ratings = %d, want within [%d, %d]", tag, n, crashSeedRatings, want)
		}
	} else if n != want {
		t.Fatalf("%s: ratings = %d, want %d (progress %+v)", tag, n, want, p)
	}

	// Transaction atomicity: the uid-9 transaction recovered whole or not
	// at all, and if its Commit was acknowledged (and the fault mode is
	// not silent corruption, which may cost an acknowledged suffix), it
	// recovered whole.
	countUID := func(uid int) int64 {
		rows, err := db.Query(fmt.Sprintf("SELECT COUNT(*) FROM ratings WHERE uid = %d", uid))
		if err != nil || !rows.Next() {
			t.Fatalf("%s: counting uid %d: %v", tag, uid, err)
		}
		var c int64
		if err := rows.Scan(&c); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return c
	}
	n9 := countUID(9)
	if n9 != 0 && n9 != 2 {
		t.Fatalf("%s: partial transaction recovered: %d of 2 rows (progress %+v)", tag, n9, p)
	}
	if mode != fault.ModeFlip {
		if p.txnCommitted && n9 != 2 {
			t.Fatalf("%s: acknowledged transaction lost (progress %+v)", tag, p)
		}
		if !p.txnCommitted && n9 != 0 {
			t.Fatalf("%s: unacknowledged transaction recovered (progress %+v)", tag, p)
		}
	}
	// The rolled-back transaction must never surface.
	if n10 := countUID(10); n10 != 0 {
		t.Fatalf("%s: rolled-back transaction recovered %d rows", tag, n10)
	}

	// Primary-key uniqueness survived recovery.
	if _, err := db.Exec("INSERT INTO users VALUES (1, 'dup')"); err == nil {
		t.Fatalf("%s: primary key not enforced after recovery", tag)
	}
	// The recommender definition survived and its model was rebuilt.
	recs := db.Recommenders()
	if len(recs) != 1 || recs[0].Name != "CrashRec" {
		t.Fatalf("%s: recommenders after recovery = %+v", tag, recs)
	}
	rec, err := db.Query(`SELECT R.iid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1`)
	if err != nil || rec.Len() == 0 {
		t.Fatalf("%s: recommendation after recovery: %v, %v", tag, err, rec)
	}
}

// TestCrashSweep crashes the workload at every injected fault point, in
// every fault mode, reopens the database, and asserts the invariants.
// The default run samples the fault points; RECDB_FAULT_SWEEP=1 (CI's
// scheduled job) sweeps them all.
func TestCrashSweep(t *testing.T) {
	// Count the workload's mutating I/O operations with a clean run.
	clean := fault.NewInject(fault.NewMemFS())
	if _, err := runCrashWorkload(clean); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := clean.Ops()
	if total < 30 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}

	full := os.Getenv("RECDB_FAULT_SWEEP") == "1"
	stride := int64(1)
	if !full && total > 40 {
		stride = total/40 + 1
	}
	t.Logf("sweeping %d fault points (stride %d, full=%v)", total, stride, full)

	modes := []struct {
		mode fault.Mode
		name string
	}{
		{fault.ModeFail, "fail"},
		{fault.ModeTorn, "torn"},
		{fault.ModePowerCut, "powercut"},
		{fault.ModeFlip, "flip"},
	}
	for _, m := range modes {
		for n := int64(1); n <= total; n++ {
			if stride > 1 && n%stride != 1 && n != total {
				continue
			}
			tag := fmt.Sprintf("%s@%d", m.name, n)
			mem := fault.NewMemFS()
			inj := fault.NewInject(mem)
			inj.SetPlan(m.mode, n)
			p, err := runCrashWorkload(inj)
			if m.mode != fault.ModeFlip && !inj.Tripped() {
				t.Fatalf("%s: plan did not trip (err %v)", tag, err)
			}
			// Power-cut at the worst moment: discard everything unsynced.
			inj.Crash()
			mem.Restart()
			verifyRecovery(t, mem, p, m.mode, tag)
		}
	}
}

// runTxnAtomicityWorkload is TestTxnCrashSweep's focused workload: seed a
// keyed table, checkpoint, then commit one transaction touching three
// rows (insert, update, delete). Every mutating I/O after the checkpoint
// belongs to the transaction's commit, so a fault sweep lands on every
// byte of the atomic group append.
func runTxnAtomicityWorkload(fs fault.FS) (saved, committed bool, err error) {
	db := Open()
	db.fs = fs
	defer db.Close()
	if _, err := db.ExecScript(`
		CREATE TABLE kv (k INT PRIMARY KEY, v INT);
		INSERT INTO kv VALUES (1, 0), (2, 0), (3, 0);
	`); err != nil {
		return false, false, err
	}
	if err := db.SaveTo("db"); err != nil {
		return false, false, err
	}
	saved = true
	tx, err := db.Begin()
	if err != nil {
		return saved, false, err
	}
	for _, stmt := range []string{
		"INSERT INTO kv VALUES (4, 4)",
		"UPDATE kv SET v = 10 WHERE k = 1",
		"DELETE FROM kv WHERE k = 2",
	} {
		if _, err := tx.Exec(stmt); err != nil {
			_ = tx.Rollback()
			return saved, false, err
		}
	}
	if err := tx.Commit(); err != nil {
		return saved, false, err
	}
	return saved, true, nil
}

// TestTxnCrashSweep crashes a three-statement transaction's commit at
// every fault point in every mode and asserts recovery lands on exactly
// the pre-transaction or post-transaction state — never a mixture.
func TestTxnCrashSweep(t *testing.T) {
	clean := fault.NewInject(fault.NewMemFS())
	if _, _, err := runTxnAtomicityWorkload(clean); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := clean.Ops()

	preState := "1:0 2:0 3:0"
	postState := "1:10 3:0 4:4"
	modes := []struct {
		mode fault.Mode
		name string
	}{
		{fault.ModeFail, "fail"},
		{fault.ModeTorn, "torn"},
		{fault.ModePowerCut, "powercut"},
		{fault.ModeFlip, "flip"},
	}
	for _, m := range modes {
		for n := int64(1); n <= total; n++ {
			tag := fmt.Sprintf("%s@%d", m.name, n)
			mem := fault.NewMemFS()
			inj := fault.NewInject(mem)
			inj.SetPlan(m.mode, n)
			saved, committed, _ := runTxnAtomicityWorkload(inj)
			inj.Crash()
			mem.Restart()

			db, err := openDirFS(mem, "db", engine.Config{})
			if err != nil {
				if !saved {
					continue
				}
				var pce *persist.CorruptError
				var wce *wal.CorruptError
				if m.mode == fault.ModeFlip && (errors.As(err, &pce) || errors.As(err, &wce) || errors.Is(err, persist.ErrNoSnapshot)) {
					continue
				}
				t.Fatalf("%s: recovery failed: %v", tag, err)
			}
			rows, err := db.Query("SELECT k, v FROM kv ORDER BY k")
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			state := ""
			for rows.Next() {
				var k, v int64
				if err := rows.Scan(&k, &v); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if state != "" {
					state += " "
				}
				state += fmt.Sprintf("%d:%d", k, v)
			}
			db.Close()
			if state != preState && state != postState {
				t.Fatalf("%s: recovered a partial transaction: %q (want %q or %q)", tag, state, preState, postState)
			}
			if m.mode != fault.ModeFlip {
				if committed && state != postState {
					t.Fatalf("%s: acknowledged transaction lost: %q", tag, state)
				}
				if !committed && saved && state != preState {
					t.Fatalf("%s: unacknowledged transaction visible: %q", tag, state)
				}
			}
		}
	}
	t.Logf("swept %d fault points x %d modes", total, len(modes))
}

// TestWALv1SegmentRejected pins that the retired version-1
// (statement-text) log format is not a WAL segment any more: a snapshot
// whose WAL tail is a hand-built, perfectly framed "RDBW1" segment must
// fail OpenDir with the typed wrong-magic error — none of its statements
// applied, no byte of it truncated or checkpointed away.
func TestWALv1SegmentRejected(t *testing.T) {
	fs := fault.NewMemFS()
	db := Open()
	db.fs = fs
	db.MustExec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
	if err := db.SaveTo("db"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Swap the (empty) log the checkpoint attached for a v1 segment
	// holding two statement-text records, framed exactly as that format
	// wrote them.
	const walDir = "db/wal"
	const v1Seg = walDir + "/wal-0000000000000001.log"
	names, err := fs.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if err := fs.Remove(walDir + "/" + name); err != nil {
			t.Fatal(err)
		}
	}
	buf := []byte("RDBW1\n")
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i, stmt := range []string{
		"INSERT INTO kv VALUES (1, 10)",
		"INSERT INTO kv VALUES (2, 20)",
	} {
		rec := make([]byte, 16+len(stmt))
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(stmt)))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(i+1))
		copy(rec[16:], stmt)
		binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], castagnoli))
		buf = append(buf, rec...)
	}
	f, err := fs.Create(v1Seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(walDir); err != nil {
		t.Fatal(err)
	}
	gensBefore, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}

	db2, err := openDirFS(fs, "db", engine.Config{})
	if err == nil {
		db2.Close()
		t.Fatal("a v1 log recovered; want the wrong-magic corruption error")
	}
	var ce *wal.CorruptError
	if !errors.As(err, &ce) || ce.Offset != 0 || ce.Reason != "not a WAL segment" {
		t.Fatalf("OpenDir err = %v, want *wal.CorruptError \"not a WAL segment\" at offset 0", err)
	}
	// Nothing truncated, nothing checkpointed: the segment is byte for
	// byte what was written and no new generation appeared.
	if seg, err := fs.ReadFile(v1Seg); err != nil || string(seg) != string(buf) {
		t.Fatalf("v1 segment after the failed open: %d bytes, %v (want the %d written)", len(seg), err, len(buf))
	}
	if names, err = fs.ReadDir(walDir); err != nil || len(names) != 1 {
		t.Fatalf("segments after the failed open: %v, %v", names, err)
	}
	if gens, err := fs.ReadDir("db"); err != nil || fmt.Sprint(gens) != fmt.Sprint(gensBefore) {
		t.Fatalf("home after the failed open: %v, %v (want %v)", gens, err, gensBefore)
	}
	// Nothing applied: with the foreign segment out of the way, the
	// snapshot opens with the table still empty.
	if err := fs.Remove(v1Seg); err != nil {
		t.Fatal(err)
	}
	db3, err := openDirFS(fs, "db", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rows, err := db3.Query("SELECT COUNT(*) FROM kv")
	if err != nil || !rows.Next() {
		t.Fatalf("reading recovered table: %v", err)
	}
	var n int64
	if err := rows.Scan(&n); err != nil || n != 0 {
		t.Fatalf("rows after removing the v1 segment = %d, %v (want 0)", n, err)
	}
}

// TestSnapshotCorruptionSweep flips bytes across every file of a saved
// snapshot and asserts Load always returns a clean typed error — never a
// panic, never silent acceptance. RECDB_FAULT_SWEEP=1 flips every byte;
// the default run samples.
func TestSnapshotCorruptionSweep(t *testing.T) {
	fs := fault.NewMemFS()
	db := Open()
	db.fs = fs
	if _, err := db.ExecScript(crashSeedScript); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveTo("db"); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// The single generation's files: corrupting any byte of any of them
	// must fail the load (there is no older generation to fall back to).
	genDir := "db/gen-000001"
	names, err := fs.ReadDir(genDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 { // manifest + at least two tables
		t.Fatalf("generation files: %v", names)
	}
	stride := int64(17)
	if os.Getenv("RECDB_FAULT_SWEEP") == "1" {
		stride = 1
	}
	flips := 0
	for _, name := range names {
		path := genDir + "/" + name
		size, err := fs.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < size; off += stride {
			mask := byte(1) << uint(off%8)
			if err := fs.Corrupt(path, off, mask); err != nil {
				t.Fatal(err)
			}
			_, _, lerr := persist.Load(fs, "db", engine.Config{})
			if lerr == nil {
				t.Fatalf("flipping %s byte %d silently succeeded", path, off)
			}
			// Restore and confirm the snapshot loads again.
			if err := fs.Corrupt(path, off, mask); err != nil {
				t.Fatal(err)
			}
			flips++
		}
	}
	if _, _, err := persist.Load(fs, "db", engine.Config{}); err != nil {
		t.Fatalf("snapshot did not survive the sweep: %v", err)
	}
	t.Logf("%d byte flips, every one detected", flips)
}
