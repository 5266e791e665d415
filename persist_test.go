package recdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestSaveToOpenDir(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE RECOMMENDER R ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	rows, err := db2.Query("SELECT COUNT(*) FROM ratings")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	if err := rows.Scan(&n); err != nil || n != 7 {
		t.Fatalf("loaded rating count: %d, %v", n, err)
	}

	// The recommender works after reopening.
	rec, err := db2.Query(`SELECT R.iid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 1`)
	if err != nil || rec.Len() != 2 {
		t.Fatalf("recommendation after reopen: %v, %v", rec, err)
	}
}

// TestConcurrentDurableWritesReplayInOrder hammers one durable key from
// many writers. Writers to one table serialize on its write gate across
// apply and log, so the WAL records them in the order they were applied;
// recovery must therefore
// reconstruct exactly the value the live database last served — never a
// reordering where an earlier update is replayed after a later one.
func TestConcurrentDurableWritesReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	db := Open()
	db.MustExec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
	db.MustExec("INSERT INTO kv VALUES (1, -1)")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				db.MustExec(fmt.Sprintf("UPDATE kv SET v = %d WHERE k = 1", w*100+i))
			}
		}(w)
	}
	wg.Wait()
	rows, err := db.Query("SELECT v FROM kv WHERE k = 1")
	if err != nil || !rows.Next() {
		t.Fatalf("live read: %v", err)
	}
	var live int64
	if err := rows.Scan(&live); err != nil {
		t.Fatal(err)
	}
	db.Close()

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rows, err = re.Query("SELECT v FROM kv WHERE k = 1")
	if err != nil || !rows.Next() {
		t.Fatalf("recovered read: %v", err)
	}
	var recovered int64
	if err := rows.Scan(&recovered); err != nil {
		t.Fatal(err)
	}
	if recovered != live {
		t.Fatalf("recovered v = %d, live database served %d: WAL order diverged from apply order", recovered, live)
	}
}

// TestSaveToPathVariantsCheckpointInPlace checkpoints to the same
// directory spelled differently (trailing separator). That must take the
// in-place branch — reset the log to a single fresh segment — not attach
// a second log on top of the old segments in the same wal directory.
func TestSaveToPathVariantsCheckpointInPlace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	db := Open()
	defer db.Close()
	db.MustExec("CREATE TABLE t (a INT PRIMARY KEY)")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO t VALUES (1)")
	if err := db.SaveTo(dir + string(filepath.Separator)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("wal dir holds %d segments after in-place checkpoint, want 1: %v", len(ents), names)
	}
	// And the checkpoint is coherent: commits keep logging, recovery sees
	// everything.
	db.MustExec("INSERT INTO t VALUES (2)")
	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rows, err := re.Query("SELECT COUNT(*) FROM t")
	if err != nil || !rows.Next() {
		t.Fatalf("recovered read: %v", err)
	}
	var n int64
	if err := rows.Scan(&n); err != nil || n != 2 {
		t.Fatalf("recovered rows = %d, %v (want 2)", n, err)
	}
}

func TestOpenDirMissing(t *testing.T) {
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Fatal("missing snapshot should fail")
	}
}

func TestWALRecoversCommitsAfterCheckpoint(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE RECOMMENDER R ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	// These statements land only in the WAL — no second SaveTo.
	db.MustExec("INSERT INTO ratings VALUES (1, 3, 5.0), (4, 1, 2.5)")
	db.MustExec("CREATE TABLE extras (id INT PRIMARY KEY, note TEXT)")
	db.MustExec("INSERT INTO extras VALUES (1, 'logged')")
	// The multi-row insert logs as an atomic group of four records
	// (TxnBegin, two inserts, TxnCommit); the DDL and single-row insert
	// log one record each.
	info := db.Durability()
	if !info.Attached || info.Dir != dir || info.WALSeq != 6 {
		t.Fatalf("durability = %+v", info)
	}
	db.Close()

	db2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.Query("SELECT COUNT(*) FROM ratings")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	var n int64
	if err := rows.Scan(&n); err != nil || n != 9 {
		t.Fatalf("ratings after WAL replay: %d, %v", n, err)
	}
	rows, err = db2.Query("SELECT note FROM extras WHERE id = 1")
	if err != nil || rows.Len() != 1 {
		t.Fatalf("extras after WAL replay: %v, %v", rows, err)
	}

	// Replay resumed the sequence: the next commit gets seq 7.
	db2.MustExec("INSERT INTO extras VALUES (2, 'post-recovery')")
	if got := db2.Durability().WALSeq; got != 7 {
		t.Fatalf("WALSeq after recovery commit = %d, want 7", got)
	}

	// A checkpoint resets the log but keeps the sequence monotonic.
	if err := db2.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db2.MustExec("INSERT INTO extras VALUES (3, 'post-checkpoint')")
	db3, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	rows, err = db3.Query("SELECT COUNT(*) FROM extras")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if err := rows.Scan(&n); err != nil || n != 3 {
		t.Fatalf("extras after second recovery: %d, %v", n, err)
	}
}

// TestReplayMaintainsPerCommit pins that recovery runs model maintenance
// once per committed group, as the live commit did: one 200-row INSERT
// over a 100-rating model is one 10 % crossing and one rebuild, not one
// rebuild per 10 % a row-by-row replay crosses on the way.
func TestReplayMaintainsPerCommit(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	insert := func(from, n int) string {
		q := "INSERT INTO ratings VALUES "
		for i := from; i < from+n; i++ {
			if i > from {
				q += ", "
			}
			q += fmt.Sprintf("(%d, %d, %d)", 1+i%17, 1+(i*7)%23, 1+i%5)
		}
		return q
	}
	db.MustExec(insert(0, 100))
	db.MustExec(`CREATE RECOMMENDER R ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db.MustExec(insert(100, 200))
	const top10 = `SELECT R.iid, R.ratingval FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
		WHERE R.uid = 3 ORDER BY R.ratingval DESC LIMIT 10`
	state := func(db *DB) (int, string) {
		t.Helper()
		rows, err := db.Query(top10)
		if err != nil {
			t.Fatal(err)
		}
		return db.Health()[0].Rebuilds, fmt.Sprint(rows.All())
	}
	liveRebuilds, liveTop := state(db)
	db.Close()
	if liveRebuilds != 1 {
		t.Fatalf("live rebuilds = %d, want 1 for one crossing commit", liveRebuilds)
	}

	re, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rebuilds, top := state(re)
	if rebuilds != liveRebuilds {
		t.Errorf("recovered rebuilds = %d, live %d", rebuilds, liveRebuilds)
	}
	if top != liveTop {
		t.Errorf("recovered top-10 differs:\n got %s\nwant %s", top, liveTop)
	}
}

// TestSyncWAL: under group commit, SyncWAL fsyncs the commits a group has
// not synced yet, once, and nothing when none is pending; a database with
// no durable home has no log to sync.
func TestSyncWAL(t *testing.T) {
	mem := newDB(t)
	if err := mem.SyncWAL(); err == nil || !strings.Contains(err.Error(), "no write-ahead log attached") {
		t.Fatalf("SyncWAL without a durable home = %v, want the no-log error", err)
	}

	db := newDB(t, WithWALSyncEvery(8))
	if err := db.SaveTo(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	syncs := func() int64 {
		t.Helper()
		n, ok := db.Metrics().Get("wal.syncs")
		if !ok {
			t.Fatal("wal.syncs missing from the metrics")
		}
		return n
	}
	before := syncs()
	db.MustExec("INSERT INTO ratings VALUES (9, 9, 4.5)")
	db.MustExec("INSERT INTO ratings VALUES (9, 8, 3)")
	if got := syncs(); got != before {
		t.Fatalf("wal.syncs %d -> %d after two commits of a group of 8", before, got)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got := syncs(); got != before+1 {
		t.Fatalf("wal.syncs %d -> %d after SyncWAL, want one more", before, got)
	}
	if err := db.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if got := syncs(); got != before+1 {
		t.Fatalf("wal.syncs %d -> %d after a SyncWAL with nothing pending", before+1, got)
	}
}
