package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"recdb/internal/fault"
)

func appendN(t *testing.T, l *Log, n int, prefix string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%d", prefix, i))); err != nil {
			t.Fatal(err)
		}
	}
}

func collect(t *testing.T, fs fault.FS, dir string, afterSeq uint64) (map[uint64]string, uint64) {
	t.Helper()
	got := map[uint64]string{}
	last, err := Replay(fs, dir, afterSeq, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, last
}

func TestAppendReplayRoundTrip(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, "rec")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, fs, "wal", 0)
	if last != 5 || len(got) != 5 {
		t.Fatalf("last = %d, records = %d", last, len(got))
	}
	if got[3] != "rec-2" {
		t.Fatalf("seq 3 payload = %q", got[3])
	}
}

func TestReplaySkipsCheckpointedRecords(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6, "rec")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, fs, "wal", 4)
	if last != 6 || len(got) != 2 {
		t.Fatalf("after 4: last = %d, records = %v", last, got)
	}
	if _, dup := got[4]; dup {
		t.Fatal("record at the replay floor was not skipped")
	}
	// Replaying twice gives the same records: idempotent.
	again, _ := collect(t, fs, "wal", 4)
	if len(again) != len(got) {
		t.Fatalf("second replay: %v vs %v", again, got)
	}
}

func TestSeqMonotonicAcrossReset(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, "a")
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("seq after reset = %d, want 4", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the post-reset record remains on disk.
	got, last := collect(t, fs, "wal", 3)
	if last != 4 || len(got) != 1 || got[4] != "after" {
		t.Fatalf("post-reset replay: last = %d, %v", last, got)
	}
}

func TestSegmentRolling(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20, "record-payload")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	got, last := collect(t, fs, "wal", 0)
	if last != 20 || len(got) != 20 {
		t.Fatalf("rolled replay: last = %d, records = %d", last, len(got))
	}
}

func TestTornTailTruncation(t *testing.T) {
	fs := fault.NewMemFS()
	inj := fault.NewInject(fs)
	l, err := Open(inj, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, "good")
	// Tear the next record's write in half and power-cut.
	inj.SetPlan(fault.ModeTorn, 1)
	if _, err := l.Append([]byte("torn-record-payload-that-is-long")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn append err = %v", err)
	}
	fs.Restart()
	got, last := collect(t, fs, "wal", 0)
	if last != 3 || len(got) != 3 {
		t.Fatalf("after torn tail: last = %d, records = %v", last, got)
	}
}

func TestPowerCutLosesOnlyUnsyncedTail(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, "durable")
	fs.Crash()
	fs.Restart()
	got, last := collect(t, fs, "wal", 0)
	if last != 4 || len(got) != 4 {
		t.Fatalf("per-commit sync lost records: last = %d, %v", last, got)
	}
}

func TestGroupedSyncCanLoseTail(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, "rec") // 3 synced as a group, the 4th pending
	fs.Crash()
	fs.Restart()
	got, last := collect(t, fs, "wal", 0)
	if last != 3 || len(got) != 3 {
		t.Fatalf("grouped sync: last = %d, records = %v", last, got)
	}

	// An explicit Sync makes the pending tail durable.
	fs2 := fault.NewMemFS()
	l2, err := Open(fs2, "wal", 0, Options{SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l2, 4, "rec")
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2.Crash()
	fs2.Restart()
	_, last = collect(t, fs2, "wal", 0)
	if last != 4 {
		t.Fatalf("explicit sync: last = %d, want 4", last)
	}
}

func TestMidSegmentCorruptionFailsReplay(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20, "record-payload")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %v", segs)
	}
	// Flip a payload byte in the FIRST (non-final) segment: that is
	// corruption, not a torn tail, and replay must fail loudly.
	if err := fs.Corrupt("wal/"+segs[0], int64(len(segmentMagic)+recordHeaderSize+2), 0x10); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(fs, "wal", 0, func(uint64, []byte) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-segment corruption: err = %v, want *CorruptError", err)
	}
}

func TestFinalSegmentCorruptTailTruncates(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, "rec")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(fs, "wal")
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	// Corrupt the LAST record's payload: replay keeps the first two and
	// treats the damaged tail as torn.
	blob, err := fs.ReadFile("wal/" + segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Corrupt("wal/"+segs[0], int64(len(blob)-1), 0x01); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, fs, "wal", 0)
	if last != 2 || len(got) != 2 {
		t.Fatalf("corrupt tail: last = %d, records = %v", last, got)
	}
}

func TestBadSegmentMagicIsCorruption(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, "rec")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Corrupt("wal/"+segName(1), 0, 0xFF); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(fs, "wal", 0, func(uint64, []byte) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("bad magic: err = %v, want *CorruptError", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := l.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	if _, err := l.Append(make([]byte, maxRecordSize+1)); err == nil {
		t.Fatal("oversize record should be rejected")
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	fs := fault.NewMemFS()
	last, err := Replay(fs, "nope", 7, func(uint64, []byte) error { return nil })
	if err != nil || last != 7 {
		t.Fatalf("missing dir: last = %d, err = %v", last, err)
	}
	if err := fs.MkdirAll("empty"); err != nil {
		t.Fatal(err)
	}
	last, err = Replay(fs, "empty", 7, func(uint64, []byte) error { return nil })
	if err != nil || last != 7 {
		t.Fatalf("empty dir: last = %d, err = %v", last, err)
	}
}

func TestOpenOnOSFS(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(fault.OS, dir, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, "os")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, fault.OS, dir, 0)
	if last != 3 || len(got) != 3 {
		t.Fatalf("os-backed replay: last = %d, %v", last, got)
	}
}

func TestPoisonedLogNeverFlushesFailedAppend(t *testing.T) {
	mem := fault.NewMemFS()
	inj := fault.NewInject(mem)
	l, err := Open(inj, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, "acked")
	// Fail the sync of the next append (op 1 is the record write, op 2 the
	// sync): the statement is reported failed, but its bytes are in the
	// segment.
	inj.SetPlan(fault.ModeFail, 2)
	if _, err := l.Append([]byte("reported-failed")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append with failing sync: err = %v", err)
	}
	// The sequence is burned regardless.
	if got := l.Seq(); got != 3 {
		t.Fatalf("Seq() = %d, want 3", got)
	}
	// The log is poisoned: no further appends or syncs, which could flush
	// the failed record to durability behind the caller's back.
	if _, err := l.Append([]byte("after")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append on poisoned log: err = %v", err)
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync on poisoned log succeeded")
	}
	// Close skips the final sync; a crash then discards the ambiguous tail.
	if err := l.Close(); err != nil {
		t.Fatalf("close poisoned log: %v", err)
	}
	mem.Crash()
	mem.Restart()
	got, last := collect(t, mem, "wal", 0)
	if last != 2 || len(got) != 2 {
		t.Fatalf("failed append became durable: last = %d, records = %v", last, got)
	}
}

func TestResetClearsPoison(t *testing.T) {
	mem := fault.NewMemFS()
	inj := fault.NewInject(mem)
	l, err := Open(inj, "wal", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, "acked")
	inj.SetPlan(fault.ModeFail, 2)
	if _, err := l.Append([]byte("reported-failed")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append with failing sync: err = %v", err)
	}
	// A checkpoint removes every segment — the ambiguous bytes with them —
	// so the log is clean again.
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("fresh")); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, last := collect(t, mem, "wal", 2)
	if last != 3 || len(got) != 1 || got[3] != "fresh" {
		t.Fatalf("after reset: last = %d, records = %v", last, got)
	}
}

// TestAppendBatchIsOneWriteAndOneCommit pins what AppendBatch promises
// on top of Append: the group reaches the file in a single Write (so a
// crash tears only a suffix), takes consecutive sequence numbers, and
// counts once toward the group-commit policy.
func TestAppendBatchIsOneWriteAndOneCommit(t *testing.T) {
	mem := fault.NewMemFS()
	inj := fault.NewInject(mem)
	l, err := Open(inj, "wal", 0, Options{SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetPlan(fault.ModeNone, 0)
	seq, err := l.AppendBatch([][]byte{[]byte("begin"), []byte("row"), []byte("commit")})
	if err != nil || seq != 3 {
		t.Fatalf("AppendBatch = %d, %v (want seq 3)", seq, err)
	}
	if ops := inj.Ops(); ops != 1 {
		t.Fatalf("first batch took %d file operations, want 1 write and no sync", ops)
	}
	if seq, err = l.Append([]byte("bare")); err != nil || seq != 4 {
		t.Fatalf("Append = %d, %v (want seq 4)", seq, err)
	}
	if ops := inj.Ops(); ops != 3 {
		t.Fatalf("second commit: %d file operations so far, want 3 (write, write, sync)", ops)
	}
	if seq, err = l.AppendBatch(nil); err != nil || seq != 4 {
		t.Fatalf("empty batch = %d, %v (want a no-op at seq 4)", seq, err)
	}
	mem.Crash()
	mem.Restart()
	got, last := collect(t, mem, "wal", 0)
	if last != 4 || got[1] != "begin" || got[2] != "row" || got[3] != "commit" || got[4] != "bare" {
		t.Fatalf("after crash: last = %d, records = %v", last, got)
	}
}

// TestAppendAllocations pins the per-INSERT path's cost: one allocation
// per Append, the framed record itself (the MemFS file's amortised growth
// rounds to zero).
func TestAppendAllocations(t *testing.T) {
	l, err := Open(fault.NewMemFS(), "wal", 0, Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("a-logical-insert-record-of-typical-size")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Append allocates %.0f times per call, want 1", allocs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
