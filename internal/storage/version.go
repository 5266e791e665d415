package storage

import (
	"fmt"

	"recdb/internal/types"
)

// This file is the heap's multi-version machinery: snapshot handles,
// the page-version overlay, and the copy-on-write page-edit protocol.
//
// The design versions page *buffers*, never page identity: a page's id
// is immutable, so RIDs stay valid across versions and secondary indexes
// never need rewriting. What changes under a writer is only which byte
// buffer backs a pool frame:
//
//   - With no live snapshot, a mutation edits the frame buffer in place.
//   - With live snapshots, the mutation clones the buffer, edits the
//     clone, records the old buffer in the overlay (tagged with the last
//     sequence number it was current for), and swaps the clone in with
//     BufferPool.Publish. The old buffer is immutable from then on.
//
// A snapshot reader resolves page id → bytes by pinning the frame first
// and consulting the overlay second. Both sides cross verMu (and the
// pool's latch), which makes the interleaving sound: if the
// reader finds no overlay entry covering its sequence, its pin happened
// before any swap, so the pinned buffer is the snapshot's version; if it
// finds one, that entry is the exact pre-edit buffer.
//
// Overlay entries are reclaimed when snapshots release: entries no live
// snapshot can select are dropped, and the whole overlay is cleared when
// the last snapshot closes. Overlay growth is therefore bounded by the
// write volume during the lifetime of the oldest open snapshot.

// heapState is the atomically published heap version: a generation
// (sequence) number plus the metadata a reader needs to interpret it.
// Writers build a new heapState for every mutation and publish it with a
// single pointer store; readers snapshot it with a single load.
type heapState struct {
	seq      uint64
	numPages uint32
	rowCount int64
}

// pageVersion preserves one superseded page buffer. data was the page's
// content for every sequence number up to and including validThrough.
type pageVersion struct {
	validThrough uint64
	data         []byte
}

// Snapshot pins one version of the heap: scans and gets through it see
// the rows exactly as of acquisition, regardless of concurrent writers.
// A snapshot holds no locks — it only keeps superseded page buffers
// reachable — but it must be Closed so those buffers can be reclaimed.
type Snapshot struct {
	h        *HeapFile
	seq      uint64
	numPages uint32
	rowCount int64
	released bool
}

// Snapshot acquires a handle on the heap's current version. The caller
// must Close it. Acquisition is a map increment under a mutex writers
// hold only for the duration of a page edit (never across I/O waits or
// WAL syncs), so it is cheap and effectively non-blocking.
func (h *HeapFile) Snapshot() *Snapshot {
	h.verMu.Lock()
	st := h.state.Load()
	h.live[st.seq]++
	h.verMu.Unlock()
	return &Snapshot{h: h, seq: st.seq, numPages: st.numPages, rowCount: st.rowCount}
}

// OpenSnapshots reports how many snapshot handles are currently held
// open on the heap. Tests use it to assert that transactions release
// their pins.
func (h *HeapFile) OpenSnapshots() int {
	h.verMu.Lock()
	defer h.verMu.Unlock()
	n := 0
	for _, c := range h.live {
		n += c
	}
	return n
}

// Seq returns the snapshot's generation number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// NumRows returns the row count as of the snapshot.
func (s *Snapshot) NumRows() int64 { return s.rowCount }

// NumPages returns the page count as of the snapshot.
func (s *Snapshot) NumPages() uint32 { return s.numPages }

// Close releases the snapshot and prunes page versions no remaining
// snapshot can read. Safe to call more than once.
func (s *Snapshot) Close() {
	if s.released {
		return
	}
	s.released = true
	s.h.releaseSnapshot(s.seq)
}

func (h *HeapFile) releaseSnapshot(seq uint64) {
	h.verMu.Lock()
	defer h.verMu.Unlock()
	if n := h.live[seq]; n > 1 {
		h.live[seq] = n - 1
		return
	}
	delete(h.live, seq)
	if len(h.live) == 0 {
		// Last reader out: no version but the live one is reachable.
		if len(h.overlay) > 0 {
			h.overlay = make(map[PageID][]pageVersion)
		}
		return
	}
	min := ^uint64(0)
	for q := range h.live {
		if q < min {
			min = q
		}
	}
	// An entry with validThrough < min satisfies no live snapshot (every
	// remaining q has q > validThrough, so the entry's range ended before
	// q). Entries are appended in increasing validThrough order, so the
	// stale ones form a prefix.
	for id, vs := range h.overlay {
		i := 0
		for i < len(vs) && vs[i].validThrough < min {
			i++
		}
		switch {
		case i == 0:
		case i == len(vs):
			delete(h.overlay, id)
		default:
			h.overlay[id] = vs[i:]
		}
	}
}

// versionLocked returns the preserved buffer that was current at seq, or
// nil if the live frame buffer is the right version. Caller holds verMu.
func (h *HeapFile) versionLocked(id PageID, seq uint64) []byte {
	for _, v := range h.overlay[id] {
		if v.validThrough >= seq {
			return v.data
		}
	}
	return nil
}

// pageBytes resolves a page to the byte buffer holding its content as of
// the snapshot. pinned reports whether the returned buffer is a pool
// frame the caller must Unpin; overlay buffers are immutable and
// unmanaged, so they come back unpinned.
//
// The pin-then-lookup order is load-bearing: a writer preserves the old
// buffer in the overlay before swapping the frame (both under verMu and
// the pool's latch), so a reader that pinned the frame and
// then finds no covering overlay entry is guaranteed its pin predates
// any swap — the pinned buffer is the snapshot's version.
func (s *Snapshot) pageBytes(id PageID) (buf []byte, pinned bool, err error) {
	b, err := s.h.pool.Fetch(id)
	if err != nil {
		return nil, false, err
	}
	s.h.verMu.Lock()
	old := s.h.versionLocked(id, s.seq)
	s.h.verMu.Unlock()
	if old != nil {
		s.h.pool.Unpin(id, false)
		return old, false, nil
	}
	return b, true, nil
}

// Get decodes the row at rid as of the snapshot.
func (s *Snapshot) Get(rid RID) (types.Row, error) {
	if uint32(rid.Page) >= s.numPages {
		return nil, fmt.Errorf("storage: no tuple at %v", rid)
	}
	buf, pinned, err := s.pageBytes(rid.Page)
	if err != nil {
		return nil, err
	}
	if pinned {
		defer s.h.pool.Unpin(rid.Page, false)
	}
	tuple, ok := AsPage(buf).Get(rid.Slot)
	if !ok {
		return nil, fmt.Errorf("storage: no tuple at %v", rid)
	}
	row, _, err := types.DecodeRow(tuple)
	return row, err
}

// editPage is the copy-on-write page-edit protocol: it pins page id,
// decides in-place vs. clone under verMu, runs fn over the writable
// bytes, and either publishes the result as the heap's next version or
// abandons it.
//
// fn mutates the page freely and returns the row-count delta, whether to
// commit, and an error to surface. On commit=false the edit is dropped;
// an in-place (non-cloned) edit must then have left the page unmodified,
// while a clone may be scribbled on freely. fn runs with verMu held —
// which is what keeps a concurrent Snapshot() from observing a page
// mid-edit — so it must not block or re-enter the heap.
//
// The caller must hold h.mu exclusively, serializing edits against each
// other. verMu is acquired and released entirely inside this function:
// that span covers deciding whether live snapshots exist, the edit
// itself, preserving the pre-edit buffer in the overlay, and publishing
// the new state, so the decision can never go stale.
func (h *HeapFile) editPage(id PageID, fn func(p *Page) (rowDelta int64, commit bool, err error)) error {
	buf, err := h.pool.Fetch(id)
	if err != nil {
		return err
	}
	h.verMu.Lock()
	live := buf // the frame buffer as pinned; immutable once preserved
	cow := len(h.live) > 0
	if cow {
		clone := make([]byte, len(buf))
		copy(clone, buf)
		buf = clone
	}
	rowDelta, commit, err := fn(AsPage(buf))
	if !commit {
		h.verMu.Unlock()
		h.pool.Unpin(id, false)
		return err
	}
	st := h.state.Load()
	if cow {
		h.overlay[id] = append(h.overlay[id], pageVersion{validThrough: st.seq, data: live})
		if perr := h.pool.Publish(id, buf); perr != nil {
			h.verMu.Unlock()
			h.pool.Unpin(id, false)
			return perr
		}
	}
	h.state.Store(&heapState{seq: st.seq + 1, numPages: st.numPages, rowCount: st.rowCount + rowDelta})
	h.verMu.Unlock()
	h.pool.Unpin(id, true)
	return err
}

// bumpLocked publishes a new heap state. Caller holds verMu (and h.mu
// exclusively). Used by the fresh-page insert path, which edits a page
// no snapshot can reference (it lies beyond every snapshot's numPages).
func (h *HeapFile) bumpLocked(pageDelta uint32, rowDelta int64) {
	st := h.state.Load()
	h.state.Store(&heapState{seq: st.seq + 1, numPages: st.numPages + pageDelta, rowCount: st.rowCount + rowDelta})
}
