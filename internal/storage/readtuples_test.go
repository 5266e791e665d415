package storage

import (
	"slices"
	"testing"

	"recdb/internal/types"
)

// lruOrder lists the pool's unpinned pages, most recently unpinned first.
func lruOrder(bp *BufferPool) []PageID {
	var ids []PageID
	for e := bp.lru.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(PageID))
	}
	return ids
}

// TestReadTuplesTouchesAsFetchUnpin: reading a run of RIDs in one batch
// leaves a small pool exactly as fetching and unpinning each RID's page in
// turn does — the same LRU order, the same resident pages, the same page
// reads, misses and write-backs, counting a run of RIDs on one page as one
// read — hands over the live tuples in order and passes over deleted ones.
func TestReadTuplesTouchesAsFetchUnpin(t *testing.T) {
	build := func() (*HeapFile, []RID) {
		h := NewHeapFile(NewBufferPool(NewMemDisk(), 3, nil))
		big := make([]byte, 3000)
		var rids []RID
		for i := 0; i < 12; i++ { // two rows a page: six pages through three frames
			rid, err := h.Insert(types.Row{types.NewInt(int64(i)), types.NewText(string(big))})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if err := h.Delete(rids[5]); err != nil {
			t.Fatal(err)
		}
		return h, rids
	}
	order := []int{0, 1, 4, 5, 10, 2, 3, 11, 0, 7, 6}

	batch, rids := build()
	var pick []RID
	for _, i := range order {
		pick = append(pick, rids[i])
	}
	var seen []int64
	r0, m0, w0 := batch.pool.stats.Snapshot()
	err := batch.ReadTuples(pick, func(i int, tuple []byte) error {
		row, _, err := types.DecodeRow(tuple)
		if err != nil {
			return err
		}
		if row[0].Int() != int64(order[i]) {
			t.Fatalf("position %d: row %v, want %d", i, row[0], order[i])
		}
		seen = append(seen, row[0].Int())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 4, 10, 2, 3, 11, 0, 7, 6}; !slices.Equal(seen, want) {
		t.Fatalf("tuples %v, want %v (row 5 was deleted)", seen, want)
	}
	r1, m1, w1 := batch.pool.stats.Snapshot()

	ref, _ := build()
	q0, n0, x0 := ref.pool.stats.Snapshot()
	prev := InvalidPageID
	reads := int64(0)
	for _, rid := range pick {
		if rid.Page == prev {
			continue // a run on one page is one touch
		}
		if _, err := ref.pool.Fetch(rid.Page); err != nil {
			t.Fatal(err)
		}
		ref.pool.Unpin(rid.Page, false)
		prev = rid.Page
		reads++
	}
	q1, n1, x1 := ref.pool.stats.Snapshot()
	if m1 == m0 || w1 == w0 {
		t.Fatal("the batch missed no page or wrote none back: the fixture does not exercise eviction")
	}
	if got, want := lruOrder(batch.pool), lruOrder(ref.pool); !slices.Equal(got, want) {
		t.Fatalf("LRU after the batch %v, after Fetch/Unpin %v", got, want)
	}
	if r1-r0 != reads || r1-r0 != q1-q0 || m1-m0 != n1-n0 || w1-w0 != x1-x0 {
		t.Fatalf("batch read/miss/write %d/%d/%d, Fetch/Unpin %d/%d/%d (%d page runs)",
			r1-r0, m1-m0, w1-w0, q1-q0, n1-n0, x1-x0, reads)
	}
}
