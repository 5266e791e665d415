package fault

import (
	"errors"
	"io"
	"testing"

	"recdb/internal/storage"
)

func write(t *testing.T, fs FS, path string, data []byte, sync bool) {
	t.Helper()
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if sync {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSUnsyncedDataLostOnCrash(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	write(t, fs, "d/synced", []byte("durable"), true)
	write(t, fs, "d/unsynced", []byte("volatile"), false)
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}

	fs.Crash()
	fs.Restart()

	got, err := fs.ReadFile("d/synced")
	if err != nil || string(got) != "durable" {
		t.Fatalf("synced file after crash: %q, %v", got, err)
	}
	// The entry survived (dir was synced) but the contents were never
	// fsynced, so the file comes back empty.
	got, err = fs.ReadFile("d/unsynced")
	if err != nil || len(got) != 0 {
		t.Fatalf("unsynced file after crash: %q, %v", got, err)
	}
}

func TestMemFSEntryNeedsDirSync(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	// File fsynced, but the directory entry never was: the file vanishes.
	write(t, fs, "d/f", []byte("x"), true)
	fs.Crash()
	fs.Restart()
	if _, err := fs.ReadFile("d/f"); !IsNotExist(err) {
		t.Fatalf("entry without dir sync should vanish, got %v", err)
	}
}

func TestMemFSRenameDurability(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	write(t, fs, "d/a.tmp", []byte("payload"), true)
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	// Rename without a dir sync: the crash reverts to the old name.
	if err := fs.Rename("d/a.tmp", "d/a"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	if _, err := fs.ReadFile("d/a"); !IsNotExist(err) {
		t.Fatalf("unsynced rename should revert, got %v", err)
	}
	if got, err := fs.ReadFile("d/a.tmp"); err != nil || string(got) != "payload" {
		t.Fatalf("old name after crash: %q, %v", got, err)
	}

	// Rename plus dir sync: the new name survives.
	if err := fs.Rename("d/a.tmp", "d/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	fs.Restart()
	if got, err := fs.ReadFile("d/a"); err != nil || string(got) != "payload" {
		t.Fatalf("synced rename after crash: %q, %v", got, err)
	}
}

func TestMemFSCorrupt(t *testing.T) {
	fs := NewMemFS()
	write(t, fs, "f", []byte{0x00, 0x01}, true)
	if err := fs.Corrupt("f", 1, 0x80); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("f")
	if err != nil || got[1] != 0x81 {
		t.Fatalf("corrupted byte: %x, %v", got, err)
	}
	if err := fs.Corrupt("f", 99, 1); err == nil {
		t.Fatal("out-of-range corrupt should fail")
	}
}

func TestInjectFail(t *testing.T) {
	inner := NewMemFS()
	fs := NewInject(inner)
	// Count the ops of a small protocol.
	run := func() error {
		if err := fs.MkdirAll("d"); err != nil {
			return err
		}
		f, err := fs.Create("d/f")
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("hello")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return fs.SyncDir("d")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	total := fs.Ops()
	if total != 6 { // mkdir, create, write, sync, close, syncdir
		t.Fatalf("ops = %d, want 6", total)
	}
	for n := int64(1); n <= total; n++ {
		fs.SetPlan(ModeFail, n)
		if err := run(); !errors.Is(err, ErrInjected) {
			t.Fatalf("fault at op %d: err = %v", n, err)
		}
		if !fs.Tripped() {
			t.Fatalf("fault at op %d did not trip", n)
		}
	}
}

func TestInjectTornWrite(t *testing.T) {
	inner := NewMemFS()
	fs := NewInject(inner)
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	// Make the new file's directory entry durable before arming the plan,
	// as the WAL does for a fresh segment.
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	fs.SetPlan(ModeTorn, 1)
	if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write err = %v", err)
	}
	// The filesystem is dead now.
	if err := fs.MkdirAll("x"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op err = %v", err)
	}
	inner.Restart()
	got, err := inner.ReadFile("d/f")
	if err != nil || string(got) != "01234" {
		t.Fatalf("torn prefix = %q, %v", got, err)
	}
}

func TestInjectFlip(t *testing.T) {
	inner := NewMemFS()
	fs := NewInject(inner)
	f, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	fs.SetPlan(ModeFlip, 1)
	if _, err := f.Write(make([]byte, 8)); err != nil {
		t.Fatal(err) // the flip is silent
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := inner.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	var ones int
	for _, b := range got {
		for ; b != 0; b &= b - 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("flip changed %d bits, want 1 (%x)", ones, got)
	}
}

func TestFaultDisk(t *testing.T) {
	d := NewDisk(storage.NewMemDisk())
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	for i := range buf {
		buf[i] = 0xAA
	}
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if got := d.Ops(); got != 2 {
		t.Fatalf("ops = %d, want 2", got)
	}

	if err := d.SetPlan(ModeFail, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed write err = %v", err)
	}

	// Torn writes and power cuts model a crash of a page file; pages
	// live only in memory, so the page injector refuses to arm them.
	for _, m := range []Mode{ModeTorn, ModePowerCut} {
		if err := d.SetPlan(m, 1); err == nil {
			t.Fatalf("SetPlan(%d) armed a crash mode", m)
		}
	}
	if err := d.ReadPage(id, buf); err != nil || buf[0] != 0xAA {
		t.Fatalf("read after refused plans: %v, %x", err, buf[0])
	}
}

func TestMemFSReadAt(t *testing.T) {
	fs := NewMemFS()
	write(t, fs, "f", []byte("abcdef"), true)
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	buf := make([]byte, 3)
	if n, err := f.ReadAt(buf, 2); n != 3 || err != nil || string(buf) != "cde" {
		t.Fatalf("ReadAt = %d, %v, %q", n, err, buf)
	}
	if n, err := f.ReadAt(buf, 5); n != 1 || err != io.EOF {
		t.Fatalf("short ReadAt = %d, %v", n, err)
	}
	if _, err := f.ReadAt(buf, 10); err != io.EOF {
		t.Fatalf("past-end ReadAt err = %v", err)
	}
}
