package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats counts page-level I/O across the engine. One Stats instance is
// shared by all buffer pools of a database so experiments can report
// logical and physical page accesses. The counters only rise: readers take
// deltas of them.
type Stats struct {
	// PageReads counts logical page fetches (buffer pool lookups).
	PageReads atomic.Int64
	// PageMisses counts fetches that had to hit the disk manager.
	PageMisses atomic.Int64
	// PageWrites counts physical page write-backs.
	PageWrites atomic.Int64
	// Evictions counts frames evicted by LRU replacement.
	Evictions atomic.Int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() (reads, misses, writes int64) {
	return s.PageReads.Load(), s.PageMisses.Load(), s.PageWrites.Load()
}

type frame struct {
	buf     []byte
	pins    int
	dirty   bool
	lruElem *list.Element // non-nil iff unpinned (eligible for eviction)
}

// BufferPool caches pages of one DiskManager with LRU replacement under
// one latch. Pages are pinned while in use; unpinned pages become
// eviction candidates, least recently unpinned first.
type BufferPool struct {
	disk     DiskManager
	capacity int
	stats    *Stats

	mu     sync.Mutex
	frames map[PageID]*frame
	lru    *list.List // of PageID, front = most recently unpinned
}

// NewBufferPool creates a pool of capacity pages over disk. stats may be
// nil, in which case a private Stats is used.
func NewBufferPool(disk DiskManager, capacity int, stats *Stats) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if stats == nil {
		stats = &Stats{}
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		stats:    stats,
		frames:   make(map[PageID]*frame, capacity),
		lru:      list.New(),
	}
}

// Fetch pins page id and returns its buffer. Callers must Unpin when done.
func (bp *BufferPool) Fetch(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.PageReads.Add(1)
	if f, ok := bp.frames[id]; ok {
		if f.pins == 0 {
			bp.lru.Remove(f.lruElem)
			f.lruElem = nil
		}
		f.pins++
		return f.buf, nil
	}
	bp.stats.PageMisses.Add(1)
	if err := bp.reserveLocked(); err != nil {
		return nil, err
	}
	buf := make([]byte, PageSize)
	if err := bp.disk.ReadPage(id, buf); err != nil {
		return nil, err
	}
	bp.frames[id] = &frame{buf: buf, pins: 1}
	return buf, nil
}

// NewPage allocates a fresh page on disk, pins it, and returns its id and a
// zeroed buffer. The frame is reserved before the disk page, so a NewPage
// that gets no frame allocates nothing.
func (bp *BufferPool) NewPage() (PageID, []byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.reserveLocked(); err != nil {
		return InvalidPageID, nil, err
	}
	id, err := bp.disk.Allocate()
	if err != nil {
		return InvalidPageID, nil, err
	}
	f := &frame{buf: make([]byte, PageSize), pins: 1, dirty: true}
	bp.frames[id] = f
	return id, f.buf, nil
}

// Publish replaces the frame buffer of page id with buf and marks it
// dirty. The page must be pinned by the caller. The previous buffer is
// left untouched for readers that captured it before the swap — this is
// the copy-on-write step of the heap's snapshot machinery: the writer
// edits a private clone, preserves the old buffer for live snapshots, and
// swaps the clone in here. Later fetches and write-backs see only the new
// buffer.
func (bp *BufferPool) Publish(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: Publish of %d-byte buffer for page %d", len(buf), id)
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		return fmt.Errorf("storage: Publish of unpinned page %d", id)
	}
	f.buf = buf
	f.dirty = true
	return nil
}

// Unpin releases one pin on page id. dirty marks the page as modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		//lint:ignore nopanic unpin of an unpinned page is caller corruption; continuing would double-free the frame
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", id))
	}
	f.dirty = f.dirty || dirty
	f.pins--
	if f.pins == 0 {
		f.lruElem = bp.lru.PushFront(id)
	}
}

// reserveLocked makes room for one more frame: when the pool is full it
// writes back and drops the least recently unpinned page, and it fails
// when every frame is pinned.
func (bp *BufferPool) reserveLocked() error {
	if len(bp.frames) < bp.capacity {
		return nil
	}
	elem := bp.lru.Back()
	if elem == nil {
		return fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", bp.capacity)
	}
	victimID := elem.Value.(PageID)
	victim := bp.frames[victimID]
	if victim.dirty {
		if err := bp.disk.WritePage(victimID, victim.buf); err != nil {
			return err
		}
		bp.stats.PageWrites.Add(1)
	}
	bp.lru.Remove(elem)
	delete(bp.frames, victimID)
	bp.stats.Evictions.Add(1)
	return nil
}
