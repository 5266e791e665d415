package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"recdb/internal/types"
)

func TestPageInsertGet(t *testing.T) {
	p := InitPage(make([]byte, PageSize))
	id1, err := p.Insert([]byte("hello"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	id2, err := p.Insert([]byte("world!"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if d, ok := p.Get(id1); !ok || string(d) != "hello" {
		t.Fatalf("Get(%d) = %q, %v", id1, d, ok)
	}
	if d, ok := p.Get(id2); !ok || string(d) != "world!" {
		t.Fatalf("Get(%d) = %q, %v", id2, d, ok)
	}
	if _, ok := p.Get(99); ok {
		t.Fatal("Get of out-of-range slot should fail")
	}
}

func TestPageDeleteCompact(t *testing.T) {
	p := InitPage(make([]byte, PageSize))
	var ids []SlotID
	for i := 0; i < 10; i++ {
		id, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before := p.FreeSpace()
	if err := p.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Get(ids[3]); ok {
		t.Fatal("deleted slot should be dead")
	}
	p.Compact()
	if p.FreeSpace() <= before {
		t.Fatalf("compact should reclaim space: before=%d after=%d", before, p.FreeSpace())
	}
	// Survivors keep their ids and contents.
	for i, id := range ids {
		if i == 3 {
			continue
		}
		d, ok := p.Get(id)
		if !ok || len(d) != 100 || d[0] != byte('a'+i) {
			t.Fatalf("slot %d corrupted after compact", id)
		}
	}
}

func TestPageFull(t *testing.T) {
	p := InitPage(make([]byte, PageSize))
	big := make([]byte, 4000)
	if _, err := p.Insert(big); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(big); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(big); err != ErrPageFull {
		t.Fatalf("expected ErrPageFull, got %v", err)
	}
}

func TestMemDisk(t *testing.T) {
	d := NewMemDisk()
	id, err := d.Allocate()
	if err != nil || id != 0 {
		t.Fatalf("Allocate: %v %v", id, err)
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatal("read back wrong data")
	}
	if err := d.ReadPage(5, got); err == nil {
		t.Fatal("read of unallocated page should fail")
	}
	if err := d.WritePage(5, buf); err == nil {
		t.Fatal("write of unallocated page should fail")
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	disk := NewMemDisk()
	stats := &Stats{}
	bp := NewBufferPool(disk, 2, stats)

	// Create 3 pages through a 2-frame pool; the first must be evicted and
	// written back.
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, buf, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		bp.Unpin(id, true)
		ids = append(ids, id)
	}
	// Page 0 should have been evicted; fetch it back and check contents.
	buf, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("evicted page lost data: %d", buf[0])
	}
	bp.Unpin(ids[0], false)
	if _, misses, writes := stats.Snapshot(); misses == 0 || writes == 0 {
		t.Fatalf("expected misses and write-backs, got misses=%d writes=%d", misses, writes)
	}

	// Eviction is LRU over the whole pool: with page 1 unpinned before
	// every other page, a 65th page evicts page 1 and no other.
	stats = &Stats{}
	bp = NewBufferPool(NewMemDisk(), 64, stats)
	for i := 0; i < 64; i++ {
		if _, _, err := bp.NewPage(); err != nil {
			t.Fatal(err)
		}
	}
	bp.Unpin(1, true)
	for i := 0; i < 64; i++ {
		if i != 1 {
			bp.Unpin(PageID(i), true)
		}
	}
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, true)
	for _, c := range []struct {
		id   PageID
		miss bool
	}{{0, false}, {1, true}} {
		_, before, _ := stats.Snapshot()
		if _, err := bp.Fetch(c.id); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(c.id, false)
		if _, after, _ := stats.Snapshot(); (after > before) != c.miss {
			t.Fatalf("fetch of page %d: missed=%v, want %v", c.id, after > before, c.miss)
		}
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 1, nil)
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	// Pool is full of pinned pages; a second page must fail.
	if _, _, err := bp.NewPage(); err == nil {
		t.Fatal("expected pool-exhausted error")
	}
	bp.Unpin(id, false)
	if _, _, err := bp.NewPage(); err != nil {
		t.Fatalf("after unpin, NewPage should succeed: %v", err)
	}

	// Every frame is open to every page: a 64-frame pool pins any 33 of
	// its pages at once, here the even-numbered ones of 66.
	bp = NewBufferPool(NewMemDisk(), 64, nil)
	for i := 0; i < 66; i++ {
		id, _, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id, true)
	}
	for id := PageID(0); id < 66; id += 2 {
		if _, err := bp.Fetch(id); err != nil {
			t.Fatalf("pin of page %d with %d pages pinned: %v", id, id/2, err)
		}
	}
}

func newTestHeap(t *testing.T, poolPages int) *HeapFile {
	t.Helper()
	return NewHeapFile(NewBufferPool(NewMemDisk(), poolPages, nil))
}

func TestHeapInsertGetScan(t *testing.T) {
	h := newTestHeap(t, 8)
	const n = 1000
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert(types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("row-%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if h.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", h.NumRows(), n)
	}
	// Random access.
	row, err := h.Get(rids[123])
	if err != nil || row[0].Int() != 123 {
		t.Fatalf("Get: %v %v", row, err)
	}
	// Scan yields everything in insertion order.
	it := h.Scan()
	defer it.Close()
	for i := 0; i < n; i++ {
		row, rid, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
		}
		if row[0].Int() != int64(i) || rid != rids[i] {
			t.Fatalf("row %d: got %v at %v", i, row, rid)
		}
	}
	if _, _, ok, _ := it.Next(); ok {
		t.Fatal("scan should be exhausted")
	}
}

func TestHeapScanWithTinyPool(t *testing.T) {
	// A 2-frame pool scanning a multi-page heap exercises eviction during
	// scans, the block-by-block pattern of the paper's operators.
	h := newTestHeap(t, 2)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := h.Insert(types.Row{types.NewInt(int64(i)), types.NewText("padding-padding-padding")}); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 3 {
		t.Fatalf("expected multi-page heap, got %d pages", h.NumPages())
	}
	it := h.Scan()
	defer it.Close()
	count := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != n {
		t.Fatalf("scanned %d rows, want %d", count, n)
	}
}

func TestHeapDelete(t *testing.T) {
	h := newTestHeap(t, 8)
	rid1, _ := h.Insert(types.Row{types.NewInt(1)})
	rid2, _ := h.Insert(types.Row{types.NewInt(2)})
	if err := h.Delete(rid1); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid1); err == nil {
		t.Fatal("double delete should fail")
	}
	if h.NumRows() != 1 {
		t.Fatalf("NumRows = %d, want 1", h.NumRows())
	}
	it := h.Scan()
	defer it.Close()
	row, rid, ok, err := it.Next()
	if err != nil || !ok || rid != rid2 || row[0].Int() != 2 {
		t.Fatalf("scan after delete: %v %v %v %v", row, rid, ok, err)
	}
}

func TestHeapUpdateInPlaceAndRelocated(t *testing.T) {
	h := newTestHeap(t, 8)
	rid, _ := h.Insert(types.Row{types.NewText("a long enough initial value")})
	// Shrinking update stays in place.
	nrid, err := h.Update(rid, types.Row{types.NewText("short")})
	if err != nil || nrid != rid {
		t.Fatalf("in-place update: %v %v", nrid, err)
	}
	row, _ := h.Get(nrid)
	if row[0].Text() != "short" {
		t.Fatalf("got %q", row[0].Text())
	}
	// Fill the page so a growing update must relocate.
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	big := types.Row{types.NewText(string(bytes.Repeat([]byte("x"), 5000)))}
	nrid2, err := h.Update(nrid, big)
	if err != nil {
		t.Fatal(err)
	}
	row, err = h.Get(nrid2)
	if err != nil || len(row[0].Text()) != 5000 {
		t.Fatalf("relocated update lost data: %v", err)
	}
	if h.NumRows() != 2001 {
		t.Fatalf("NumRows = %d, want 2001", h.NumRows())
	}
}

// TestHeapFailedNewPageSkipsNoPage: a NewPage that gets a disk page but
// no frame must not leave that page behind the heap's page count, where
// no scan would read the rows stored on it.
func TestHeapFailedNewPageSkipsNoPage(t *testing.T) {
	h := newTestHeap(t, 1)
	pad := strings.Repeat("x", 5000)
	if _, err := h.Insert(types.Row{types.NewInt(0), types.NewText(pad)}); err != nil {
		t.Fatal(err)
	}
	// With page 0 pinned, the one frame is taken: the next row needs a
	// fresh page and cannot have one.
	if _, err := h.Pool().Fetch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(types.Row{types.NewInt(1), types.NewText(pad)}); err == nil {
		t.Fatal("insert with every frame pinned should fail")
	}
	h.Pool().Unpin(0, false)
	rid, err := h.Insert(types.Row{types.NewInt(1), types.NewText(pad)})
	if err != nil {
		t.Fatal(err)
	}
	if want := (RID{Page: 1, Slot: 0}); rid != want {
		t.Fatalf("row stored at %v, want %v", rid, want)
	}
	rows, _ := scanAll(t, h.Scan())
	if h.NumPages() != 2 || h.NumRows() != 2 || len(rows) != 2 {
		t.Fatalf("pages=%d rows=%d scanned=%d, want 2, 2, 2", h.NumPages(), h.NumRows(), len(rows))
	}
}

// TestHeapFailedRelocationKeepsRow: an update that must move its row to
// another page and cannot get one fails without touching the row.
func TestHeapFailedRelocationKeepsRow(t *testing.T) {
	h := newTestHeap(t, 1)
	var rids []RID
	for i := int64(0); i < 2; i++ {
		rid, err := h.Insert(types.Row{types.NewInt(i), types.NewText(strings.Repeat("a", 3000))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// A scan holds page 0 pinned, so the moved row can get no fresh page.
	it := h.Scan()
	if _, _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("scan: ok=%v err=%v", ok, err)
	}
	if _, err := h.Update(rids[0], types.Row{types.NewInt(0), types.NewText(strings.Repeat("b", 6000))}); err == nil {
		t.Fatal("relocating update with every frame pinned should fail")
	}
	it.Close()
	row, err := h.Get(rids[0])
	if err != nil || row[1].Text() != strings.Repeat("a", 3000) {
		t.Fatalf("row after failed update: %v, %v", row, err)
	}
	rows, _ := scanAll(t, h.Scan())
	if h.NumRows() != 2 || len(rows) != 2 {
		t.Fatalf("rows=%d scanned=%d, want 2, 2", h.NumRows(), len(rows))
	}
}

func TestHeapRoundTripProperty(t *testing.T) {
	h := newTestHeap(t, 4)
	f := func(i int64, s string, fl float64) bool {
		row := types.Row{types.NewInt(i), types.NewText(s), types.NewFloat(fl)}
		if len(s) > 7000 {
			return true
		}
		rid, err := h.Insert(row)
		if err != nil {
			return false
		}
		got, err := h.Get(rid)
		if err != nil || len(got) != 3 {
			return false
		}
		return got[0].Int() == i && got[1].Text() == s &&
			(got[2].Float() == fl || (fl != fl && got[2].Float() != got[2].Float()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentScanAndInsert(t *testing.T) {
	h := newTestHeap(t, 16)
	for i := 0; i < 500; i++ {
		if _, err := h.Insert(types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	// Writers keep appending while readers scan (read-uncommitted is fine;
	// the point is memory safety under -race).
	for w := 0; w < 2; w++ {
		go func(base int) {
			for i := 0; i < 300; i++ {
				if _, err := h.Insert(types.Row{types.NewInt(int64(base + i))}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(1000 * (w + 1))
	}
	for r := 0; r < 4; r++ {
		go func() {
			for pass := 0; pass < 3; pass++ {
				it := h.Scan()
				count := 0
				for {
					_, _, ok, err := it.Next()
					if err != nil {
						it.Close()
						done <- err
						return
					}
					if !ok {
						break
					}
					count++
				}
				it.Close()
				if count < 500 {
					done <- fmt.Errorf("scan saw %d rows, want >= 500", count)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if h.NumRows() != 1100 {
		t.Fatalf("final rows = %d", h.NumRows())
	}
}

// TestAsPagePanicsOnWrongSize pins the sanctioned nopanic site in
// page.go: AsPage must reject a buffer that is not exactly PageSize.
// Every in-tree caller passes pool frames, which are PageSize by
// construction — this test is the tripwire for any future caller that
// is not.
func TestAsPagePanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AsPage on a short buffer must panic")
		}
	}()
	AsPage(make([]byte, PageSize-1))
}

// TestAsPageAcceptsPoolFrames proves the invariant the suppression
// relies on: buffers handed out by the pool are always PageSize.
func TestAsPageAcceptsPoolFrames(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2, nil)
	id, buf, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(id, false)
	if len(buf) != PageSize {
		t.Fatalf("pool frame is %d bytes, want PageSize", len(buf))
	}
	if p := AsPage(buf); p == nil {
		t.Fatal("AsPage rejected a pool frame")
	}
}

// TestUnpinOfUnpinnedPanics pins the sanctioned nopanic site in
// bufferpool.go: a double unpin is caller corruption (the frame would be
// double-freed into the LRU) and must fail loudly.
func TestUnpinOfUnpinnedPanics(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2, nil)
	id, _, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id, false)
	defer func() {
		if recover() == nil {
			t.Fatal("second Unpin of the same pin must panic")
		}
	}()
	bp.Unpin(id, false)
}
