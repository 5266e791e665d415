package storage

import (
	"fmt"
	"sync"
	"testing"

	"recdb/internal/types"
)

// versionedHeap builds a heap with nRows rows of the shape (i, "v0-i")
// over a pool of poolPages frames.
func versionedHeap(t *testing.T, nRows, poolPages int) (*HeapFile, []RID) {
	t.Helper()
	h := NewHeapFile(NewBufferPool(NewMemDisk(), poolPages, nil))
	rids := make([]RID, nRows)
	for i := 0; i < nRows; i++ {
		rid, err := h.Insert(types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("v0-%04d", i))})
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return h, rids
}

// TestSnapshotStability: a snapshot opened before a batch of same-size
// updates sees only the pre-update values to completion, while a scan
// opened after the updates sees only the new ones. Same-size updates
// rewrite tuples in place, so this exercises the copy-on-write overlay
// rather than delete/re-insert relocation.
func TestSnapshotStability(t *testing.T) {
	const n = 500
	h, rids := versionedHeap(t, n, 4)

	before := h.Snapshot()
	defer before.Close()

	for i, rid := range rids {
		// Same byte length as "v0-%04d": stays in place, same RID.
		nr, err := h.Update(rid, types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("v1-%04d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if nr != rid {
			t.Fatalf("same-size update relocated %v -> %v", rid, nr)
		}
	}

	seen := 0
	it := before.Scan()
	defer it.Close()
	for {
		row, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got := row[1].Text(); got[:2] != "v0" {
			t.Fatalf("snapshot scan leaked post-snapshot value %q", got)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("snapshot scan saw %d rows, want %d", seen, n)
	}
	// Point reads through the snapshot see the old version too.
	row, err := before.Get(rids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := row[1].Text(); got != "v0-0000" {
		t.Fatalf("snapshot Get = %q, want v0-0000", got)
	}

	// A scan opened after the updates sees only new values.
	it2 := h.Scan()
	defer it2.Close()
	for {
		row, _, ok, err := it2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got := row[1].Text(); got[:2] != "v1" {
			t.Fatalf("post-update scan saw stale value %q", got)
		}
	}
}

// TestSnapshotMidScanWrites opens a scan, consumes half of it, runs
// updates and fresh inserts, then finishes the scan: every row it yields
// must still be the snapshot's version, and the fresh inserts must be
// invisible (they lie past the snapshot's page count or behind the
// overlay).
func TestSnapshotMidScanWrites(t *testing.T) {
	const n = 400
	h, rids := versionedHeap(t, n, 4)

	it := h.Scan()
	defer it.Close()
	seen := 0
	for seen < n/2 {
		row, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("scan ended early at %d", seen)
		}
		if got := row[1].Text(); got[:2] != "v0" {
			t.Fatalf("pre-write scan half saw %q", got)
		}
		seen++
	}

	for i, rid := range rids {
		if _, err := h.Update(rid, types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("v1-%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := h.Insert(types.Row{types.NewInt(int64(n + i)), types.NewText(fmt.Sprintf("nw-%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}

	for {
		row, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if got := row[1].Text(); got[:2] != "v0" {
			t.Fatalf("mid-scan write leaked %q into an open snapshot", got)
		}
		seen++
	}
	if seen != n {
		t.Fatalf("snapshot scan saw %d rows, want exactly %d (fresh inserts must be invisible)", seen, n)
	}
}

// TestOverlayReclamation: page versions preserved for a snapshot are
// dropped once the last snapshot closes, and never accumulate without
// open snapshots.
func TestOverlayReclamation(t *testing.T) {
	const n = 200
	h, rids := versionedHeap(t, n, 4)

	overlayLen := func() int {
		h.verMu.Lock()
		defer h.verMu.Unlock()
		return len(h.overlay)
	}

	// Writes with no snapshot open edit in place: no overlay growth.
	for i, rid := range rids[:50] {
		if _, err := h.Update(rid, types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("va-%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := overlayLen(); got != 0 {
		t.Fatalf("overlay grew to %d entries with no snapshot open", got)
	}

	s := h.Snapshot()
	for i, rid := range rids {
		if _, err := h.Update(rid, types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("vb-%04d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if got := overlayLen(); got == 0 {
		t.Fatal("updates under a live snapshot must preserve page versions")
	}
	s.Close()
	if got := overlayLen(); got != 0 {
		t.Fatalf("overlay holds %d entries after the last snapshot closed", got)
	}
}

// TestConcurrentSnapshotHammer drives concurrent scanning readers against
// a writer mutating the heap through a small buffer pool. Run
// with -race this is the torn-read check for the whole read path: pin
// ordering, overlay lookups, eviction, and the atomic state
// publish. The correctness invariant is that every scan sees exactly its
// snapshot's row count, and every row it yields decodes to a value the
// snapshot's generation could contain.
func TestConcurrentSnapshotHammer(t *testing.T) {
	const (
		n       = 300
		readers = 4
		rounds  = 25
	)
	h, rids := versionedHeap(t, n, 2) // 2 frames: constant eviction pressure

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				want := snap.NumRows()
				it := snap.Scan()
				var got int64
				for {
					row, _, ok, err := it.Next()
					if err != nil {
						errc <- err
						it.Close()
						snap.Close()
						return
					}
					if !ok {
						break
					}
					if len(row) != 2 {
						errc <- fmt.Errorf("torn row: %v", row)
						it.Close()
						snap.Close()
						return
					}
					got++
				}
				it.Close()
				snap.Close()
				if got != want {
					errc <- fmt.Errorf("scan of seq %d saw %d rows, snapshot says %d", snap.Seq(), got, want)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for round := 0; round < rounds; round++ {
			for i, rid := range rids {
				if _, err := h.Update(rid, types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprintf("v%d-%03d", round%9, i))}); err != nil {
					errc <- err
					return
				}
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
