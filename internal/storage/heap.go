package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"recdb/internal/types"
)

// RID addresses a tuple: a page within the heap file plus a slot.
type RID struct {
	Page PageID
	Slot SlotID
}

// String renders the RID for debugging.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile stores rows in slotted pages through a buffer pool. Inserts
// append to the last page with room (the fill pattern the paper's bulk
// model loads produce), one tuple at a time (Insert) or a page at a time
// (AppendTuples); scans visit pages in order, block by block.
//
// The heap is multi-versioned at the page-buffer level: every mutation
// publishes a new generation (heapState) with an atomic pointer store,
// and Scan pins the generation current at its start — an in-flight scan
// keeps reading its version to completion while writers proceed (see
// version.go). Mutations are serialized by mu; plain point Gets share it.
type HeapFile struct {
	mu   sync.RWMutex
	pool *BufferPool
	// lastPage caches the page most likely to have free space.
	lastPage PageID

	// state is the published generation: sequence number, page count,
	// and row count. Readers snapshot it with one atomic load.
	state atomic.Pointer[heapState]

	// verMu guards the snapshot refcounts and the page-version overlay.
	// Writers hold it for the duration of a page edit; snapshot acquire,
	// release, and per-page version lookups hold it briefly.
	verMu   sync.Mutex
	live    map[uint64]int // snapshot seq → open handles
	overlay map[PageID][]pageVersion
}

// NewHeapFile creates an empty heap over the pool, whose disk must hold
// no pages yet.
func NewHeapFile(pool *BufferPool) *HeapFile {
	h := &HeapFile{
		pool:     pool,
		lastPage: InvalidPageID,
		live:     make(map[uint64]int),
		overlay:  make(map[PageID][]pageVersion),
	}
	h.state.Store(&heapState{})
	return h
}

// Pool returns the heap's buffer pool.
func (h *HeapFile) Pool() *BufferPool { return h.pool }

// NumPages returns the number of pages in the heap.
func (h *HeapFile) NumPages() uint32 { return h.state.Load().numPages }

// NumRows returns the number of live rows.
func (h *HeapFile) NumRows() int64 { return h.state.Load().rowCount }

// maxTupleSize is the largest tuple an empty page holds.
const maxTupleSize = PageSize - pageHeaderSize - slotSize

// Insert encodes row and stores it, returning its RID.
func (h *HeapFile) Insert(row types.Row) (RID, error) {
	tuple := types.EncodeRow(nil, row)
	if len(tuple) > maxTupleSize {
		return RID{}, fmt.Errorf("storage: row of %d bytes exceeds page capacity", len(tuple))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked(tuple)
}

// insertLocked stores an encoded tuple; the caller holds mu exclusively
// and has checked the tuple fits a page.
func (h *HeapFile) insertLocked(tuple []byte) (RID, error) {
	// Try the cached last page first.
	if h.lastPage != InvalidPageID {
		rid, ok, err := h.tryInsert(h.lastPage, tuple)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	rids, err := h.appendPageLocked(nil, [][]byte{tuple})
	if err != nil {
		return RID{}, err
	}
	return rids[0], nil
}

// AppendTuples stores encoded rows (types.EncodeRow) in order and returns
// their RIDs. Placement is Insert's — top up the last page, then open a
// fresh page whenever a tuple does not fit the current one — so the RIDs
// are exactly those a loop of Insert would return. What differs is the
// cost: each page is pinned once and published as one heap generation
// rather than one per tuple. A snapshot therefore sees a page's share of
// the batch or none of it, never part of a page. A tuple no page can hold
// fails the call before anything is stored; an I/O error part way leaves
// the pages already published in place, as a loop of Insert would, and
// returns no RIDs.
func (h *HeapFile) AppendTuples(tuples [][]byte) ([]RID, error) {
	for _, t := range tuples {
		if len(t) == 0 || len(t) > maxTupleSize {
			return nil, fmt.Errorf("storage: tuple of %d bytes cannot be stored in a page", len(t))
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rids := make([]RID, 0, len(tuples))
	if h.lastPage != InvalidPageID && len(tuples) > 0 {
		id := h.lastPage
		err := h.editPage(id, func(p *Page) (int64, bool, error) {
			rids = fillPage(p, id, rids, tuples)
			return int64(len(rids)), len(rids) > 0, nil
		})
		if err != nil {
			return nil, err
		}
	}
	for len(rids) < len(tuples) {
		var err error
		if rids, err = h.appendPageLocked(rids, tuples[len(rids):]); err != nil {
			return nil, err
		}
	}
	return rids, nil
}

// fillPage inserts tuples into p until one does not fit, appending their
// RIDs to rids.
func fillPage(p *Page, id PageID, rids []RID, tuples [][]byte) []RID {
	for _, t := range tuples {
		slot, err := p.Insert(t)
		if err != nil {
			break
		}
		rids = append(rids, RID{Page: id, Slot: slot})
	}
	return rids
}

// appendPageLocked allocates a fresh page, fills it from the front of
// tuples and publishes it, appending the stored tuples' RIDs to rids. No
// snapshot can reference the page (it lies past every snapshot's page
// count), so it is filled in place; verMu is held so the page-count bump
// publishes atomically with the edit. The caller holds mu exclusively and
// has checked that every tuple fits an empty page.
func (h *HeapFile) appendPageLocked(rids []RID, tuples [][]byte) ([]RID, error) {
	h.verMu.Lock()
	id, buf, err := h.pool.NewPage()
	if err != nil {
		h.verMu.Unlock()
		return rids, err
	}
	before := len(rids)
	rids = fillPage(InitPage(buf), id, rids, tuples)
	h.bumpLocked(1, int64(len(rids)-before))
	h.verMu.Unlock()
	h.pool.Unpin(id, true)
	h.lastPage = id
	if len(rids) == before {
		return rids, fmt.Errorf("storage: tuple of %d bytes does not fit an empty page", len(tuples[0]))
	}
	return rids, nil
}

func (h *HeapFile) tryInsert(id PageID, tuple []byte) (RID, bool, error) {
	var slot SlotID
	inserted := false
	err := h.editPage(id, func(p *Page) (int64, bool, error) {
		s, err := p.Insert(tuple)
		if err == ErrPageFull {
			return 0, false, nil // page untouched; fall through to a fresh page
		}
		if err != nil {
			return 0, false, err
		}
		slot, inserted = s, true
		return 1, true, nil
	})
	if err != nil || !inserted {
		return RID{}, false, err
	}
	return RID{Page: id, Slot: slot}, true, nil
}

// Get decodes the row at rid (the current version).
func (h *HeapFile) Get(rid RID) (types.Row, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	buf, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	p := AsPage(buf)
	tuple, ok := p.Get(rid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: no tuple at %v", rid)
	}
	row, _, err := types.DecodeRow(tuple)
	return row, err
}

// ReadTuples hands fn each live tuple at rids, in order, with i its
// position in rids — an index scan's batch of candidates. The whole batch
// is read under one hold of the heap's read lock and the pool's latch, so
// the caller bounds len(rids): a writer waits for at most one batch. A
// RID whose slot holds no tuple (deleted or relocated since its index
// entry was read) is passed over, not an error. Each run of RIDs on one
// page touches that page once, exactly as a Fetch and Unpin of it would:
// one PageReads count, the same LRU position, the same miss and eviction.
// fn runs under the latch, so it must not block or reach the pool, and
// tuple is valid only until it returns.
func (h *HeapFile) ReadTuples(rids []RID, fn func(i int, tuple []byte) error) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	h.pool.mu.Lock()
	defer h.pool.mu.Unlock()
	var page Page // a value: a *Page made in the loop would be a heap allocation per page
	cur := InvalidPageID
	for i, rid := range rids {
		if page.buf == nil || rid.Page != cur {
			buf, err := h.pool.touchLocked(rid.Page)
			if err != nil {
				return err
			}
			page, cur = Page{buf: buf}, rid.Page
		}
		if tuple, ok := page.Get(rid.Slot); ok {
			if err := fn(i, tuple); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete removes the row at rid.
func (h *HeapFile) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.editPage(rid.Page, func(p *Page) (int64, bool, error) {
		if _, ok := p.Get(rid.Slot); !ok {
			return 0, false, fmt.Errorf("storage: delete of missing tuple at %v", rid)
		}
		if err := p.Delete(rid.Slot); err != nil {
			return 0, false, err
		}
		return -1, true, nil
	})
}

// Update replaces the row at rid in place when it fits in the page after
// compaction, otherwise deletes and re-inserts, returning the (possibly
// new) RID. A failed Update leaves the row at rid as it was.
func (h *HeapFile) Update(rid RID, row types.Row) (RID, error) {
	tuple := types.EncodeRow(nil, row)
	if len(tuple) > maxTupleSize {
		return RID{}, fmt.Errorf("storage: row of %d bytes exceeds page capacity", len(tuple))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := rid
	relocate := false
	err := h.editPage(rid.Page, func(p *Page) (int64, bool, error) {
		old, ok := p.Get(rid.Slot)
		if !ok {
			return 0, false, fmt.Errorf("storage: update of missing tuple at %v", rid)
		}
		if len(tuple) <= len(old) {
			// Fits in place (slot length shrinks are fine).
			off, _ := p.slot(rid.Slot)
			copy(p.buf[off:], tuple)
			p.setSlot(rid.Slot, off, uint16(len(tuple)))
			return 0, true, nil
		}
		// Try the same page after dropping the old tuple and compacting.
		// The trial runs on a copy, so a tuple that still does not fit
		// leaves the page untouched.
		trial := AsPage(append([]byte(nil), p.buf...))
		if err := trial.Delete(rid.Slot); err != nil {
			return 0, false, err
		}
		trial.Compact()
		slot, err := trial.Insert(tuple)
		if err == ErrPageFull {
			relocate = true
			return 0, false, nil
		}
		if err != nil {
			return 0, false, err
		}
		copy(p.buf, trial.buf)
		out = RID{Page: rid.Page, Slot: slot}
		return 0, true, nil
	})
	if err != nil {
		return RID{}, err
	}
	if relocate {
		return h.relocateLocked(rid, tuple)
	}
	return out, nil
}

// relocateLocked deletes the row at rid and stores tuple on another page.
// rid's page stays pinned throughout, so each edit of it is a pool hit
// that needs no frame and no I/O: when storing tuple fails, the old row is
// put back in its slot and the update has no effect. The caller holds mu
// exclusively and has found that tuple does not fit rid's page.
func (h *HeapFile) relocateLocked(rid RID, tuple []byte) (RID, error) {
	if _, err := h.pool.Fetch(rid.Page); err != nil {
		return RID{}, err
	}
	defer h.pool.Unpin(rid.Page, false)
	var off, ln uint16
	err := h.editPage(rid.Page, func(p *Page) (int64, bool, error) {
		off, ln = p.slot(rid.Slot)
		p.setSlot(rid.Slot, 0, 0)
		return -1, true, nil
	})
	if err != nil {
		return RID{}, err
	}
	out, err := h.insertLocked(tuple)
	if err == nil {
		return out, nil
	}
	// A failed insert stored nothing, so the old tuple's bytes are still
	// at off: the delete above left them in place.
	rerr := h.editPage(rid.Page, func(p *Page) (int64, bool, error) {
		p.setSlot(rid.Slot, off, ln)
		return 1, true, nil
	})
	return RID{}, errors.Join(err, rerr)
}

// Iterator walks all live rows of one heap snapshot in page order. It
// holds no pins between Next calls on different pages, so scans of
// arbitrarily large heaps work with a small pool — and it never blocks
// on (nor is blocked by) concurrent writers, which copy-on-write around
// the snapshot's pages.
type Iterator struct {
	snap    *Snapshot
	ownSnap bool // Close releases the snapshot too
	page    PageID
	slot    int
	buf     []byte
	pinned  bool
	closed  bool
}

// Scan returns an iterator over the heap's current version, positioned
// before the first row. Close it to release the pinned snapshot.
func (h *HeapFile) Scan() *Iterator {
	return &Iterator{snap: h.Snapshot(), ownSnap: true, page: 0, slot: -1}
}

// Scan returns an iterator over the snapshot, positioned before the
// first row. Closing the iterator does not close the snapshot.
func (s *Snapshot) Scan() *Iterator {
	return &Iterator{snap: s, page: 0, slot: -1}
}

// Next returns the next row and its RID. ok=false signals end of heap.
func (it *Iterator) Next() (types.Row, RID, bool, error) {
	if it.closed {
		return nil, RID{}, false, fmt.Errorf("storage: Next on closed iterator")
	}
	for {
		if uint32(it.page) >= it.snap.numPages {
			it.unpin()
			return nil, RID{}, false, nil
		}
		if it.buf == nil {
			buf, pinned, err := it.snap.pageBytes(it.page)
			if err != nil {
				return nil, RID{}, false, err
			}
			it.buf, it.pinned = buf, pinned
		}
		p := AsPage(it.buf)
		for it.slot+1 < p.NumSlots() {
			it.slot++
			if tuple, ok := p.Get(SlotID(it.slot)); ok {
				row, _, err := types.DecodeRow(tuple)
				if err != nil {
					return nil, RID{}, false, err
				}
				return row, RID{Page: it.page, Slot: SlotID(it.slot)}, true, nil
			}
		}
		it.unpin()
		it.page++
		it.slot = -1
	}
}

func (it *Iterator) unpin() {
	if it.pinned {
		it.snap.h.pool.Unpin(it.page, false)
		it.pinned = false
	}
	it.buf = nil
}

// Close releases any held pin (and the snapshot, for iterators from
// HeapFile.Scan). Safe to call multiple times.
func (it *Iterator) Close() {
	if !it.closed {
		it.unpin()
		if it.ownSnap {
			it.snap.Close()
		}
		it.closed = true
	}
}
