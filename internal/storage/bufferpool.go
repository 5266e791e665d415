package storage

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxPartitions bounds how many lock stripes a buffer pool may have (and
// sizes the per-partition counter array in Stats).
const MaxPartitions = 16

// PartitionStats counts page traffic through one pool partition. The
// counters live in Stats (shared across every pool of a database), so the
// metrics registry can expose per-stripe hit/miss/eviction rates.
type PartitionStats struct {
	// Hits counts fetches served from this partition's frames.
	Hits atomic.Int64
	// Misses counts fetches that had to hit the disk manager.
	Misses atomic.Int64
	// Evictions counts frames this partition evicted by LRU replacement.
	Evictions atomic.Int64
}

// Stats counts page-level I/O across the engine. One Stats instance is
// shared by all buffer pools of a database so experiments can report
// logical and physical page accesses.
type Stats struct {
	// PageReads counts logical page fetches (buffer pool lookups).
	PageReads atomic.Int64
	// PageMisses counts fetches that had to hit the disk manager.
	PageMisses atomic.Int64
	// PageWrites counts physical page write-backs.
	PageWrites atomic.Int64
	// Evictions counts frames evicted by LRU replacement.
	Evictions atomic.Int64
	// Partitions breaks reads and evictions down by pool partition.
	// Pools with fewer than MaxPartitions stripes use a prefix of the
	// array; all pools sharing this Stats aggregate into the same slots.
	Partitions [MaxPartitions]PartitionStats
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() (reads, misses, writes int64) {
	return s.PageReads.Load(), s.PageMisses.Load(), s.PageWrites.Load()
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.PageReads.Store(0)
	s.PageMisses.Store(0)
	s.PageWrites.Store(0)
	s.Evictions.Store(0)
	for i := range s.Partitions {
		s.Partitions[i].Hits.Store(0)
		s.Partitions[i].Misses.Store(0)
		s.Partitions[i].Evictions.Store(0)
	}
}

type frame struct {
	id      PageID
	buf     []byte
	pins    int
	dirty   bool
	lruElem *list.Element // non-nil iff unpinned (eligible for eviction)
}

// partition is one lock stripe of the pool: a private frame table, LRU
// list, and capacity share. Pages map to partitions by id, so two scans
// touching different pages contend only when their pages share a stripe.
type partition struct {
	mu       sync.Mutex
	frames   map[PageID]*frame
	lru      *list.List // of PageID, front = most recently unpinned
	capacity int
	ps       *PartitionStats
}

// BufferPool caches pages of one DiskManager with LRU replacement, striped
// into power-of-two lock partitions keyed by page id. Pages are pinned
// while in use; unpinned pages become eviction candidates within their
// partition.
type BufferPool struct {
	disk     DiskManager
	capacity int
	parts    []*partition
	mask     uint32
	stats    *Stats

	// unframed holds pages the disk allocated for a NewPage that then got
	// no frame. NewPage hands them out, oldest first, before it allocates
	// again, so a failed NewPage leaves no page behind the ones a heap
	// has counted.
	unframedMu sync.Mutex
	unframed   []PageID
}

// partitionsFor picks the stripe count for a pool: one stripe per 32
// frames, clamped to [1, MaxPartitions] and rounded down to a power of
// two. Small pools (tests run with a handful of frames) keep a single
// stripe so "all pinned" exhaustion behaves exactly like the unstriped
// pool did; the default 512-frame table pool gets the full 16.
func partitionsFor(capacity int) int {
	n := capacity / 32
	if n < 1 {
		return 1
	}
	if n > MaxPartitions {
		n = MaxPartitions
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
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
	n := partitionsFor(capacity)
	bp := &BufferPool{
		disk:     disk,
		capacity: capacity,
		parts:    make([]*partition, n),
		mask:     uint32(n - 1),
		stats:    stats,
	}
	for i := range bp.parts {
		// Split the capacity evenly; the first capacity%n stripes absorb
		// the remainder so the total is exact.
		share := capacity / n
		if i < capacity%n {
			share++
		}
		bp.parts[i] = &partition{
			frames:   make(map[PageID]*frame, share),
			lru:      list.New(),
			capacity: share,
			ps:       &stats.Partitions[i],
		}
	}
	return bp
}

func (bp *BufferPool) part(id PageID) *partition {
	return bp.parts[uint32(id)&bp.mask]
}

// Fetch pins page id and returns its buffer. Callers must Unpin when done.
func (bp *BufferPool) Fetch(id PageID) ([]byte, error) {
	p := bp.part(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	bp.stats.PageReads.Add(1)
	if f, ok := p.frames[id]; ok {
		p.ps.Hits.Add(1)
		p.pinLocked(f)
		return f.buf, nil
	}
	bp.stats.PageMisses.Add(1)
	p.ps.Misses.Add(1)
	f, err := bp.allocFrameLocked(p, id)
	if err != nil {
		return nil, err
	}
	if err := bp.disk.ReadPage(id, f.buf); err != nil {
		delete(p.frames, id)
		return nil, err
	}
	return f.buf, nil
}

// NewPage allocates a fresh page on disk, pins it, and returns its id and a
// zeroed buffer.
func (bp *BufferPool) NewPage() (PageID, []byte, error) {
	id, err := bp.allocate()
	if err != nil {
		return InvalidPageID, nil, err
	}
	p := bp.part(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := bp.allocFrameLocked(p, id)
	if err != nil {
		bp.unframedMu.Lock()
		bp.unframed = append(bp.unframed, id)
		bp.unframedMu.Unlock()
		return InvalidPageID, nil, err
	}
	for i := range f.buf {
		f.buf[i] = 0
	}
	f.dirty = true
	return id, f.buf, nil
}

// allocate returns the oldest unframed page, or else a page newly
// allocated on disk.
func (bp *BufferPool) allocate() (PageID, error) {
	bp.unframedMu.Lock()
	defer bp.unframedMu.Unlock()
	if len(bp.unframed) == 0 {
		return bp.disk.Allocate()
	}
	id := bp.unframed[0]
	bp.unframed = bp.unframed[1:]
	return id, nil
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
	p := bp.part(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || f.pins == 0 {
		return fmt.Errorf("storage: Publish of unpinned page %d", id)
	}
	f.buf = buf
	f.dirty = true
	return nil
}

// Unpin releases one pin on page id. dirty marks the page as modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	p := bp.part(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok || f.pins == 0 {
		//lint:ignore nopanic unpin of an unpinned page is caller corruption; continuing would double-free the frame
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", id))
	}
	f.dirty = f.dirty || dirty
	f.pins--
	if f.pins == 0 {
		f.lruElem = p.lru.PushFront(id)
	}
}

func (p *partition) pinLocked(f *frame) {
	if f.pins == 0 && f.lruElem != nil {
		p.lru.Remove(f.lruElem)
		f.lruElem = nil
	}
	f.pins++
}

func (bp *BufferPool) allocFrameLocked(p *partition, id PageID) (*frame, error) {
	if len(p.frames) >= p.capacity {
		if err := bp.evictLocked(p); err != nil {
			return nil, err
		}
	}
	f := &frame{id: id, buf: make([]byte, PageSize), pins: 1}
	p.frames[id] = f
	return f, nil
}

func (bp *BufferPool) evictLocked(p *partition) error {
	elem := p.lru.Back()
	if elem == nil {
		return fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", p.capacity)
	}
	victimID := elem.Value.(PageID)
	victim := p.frames[victimID]
	if victim.dirty {
		if err := bp.disk.WritePage(victimID, victim.buf); err != nil {
			return err
		}
		bp.stats.PageWrites.Add(1)
	}
	p.lru.Remove(elem)
	delete(p.frames, victimID)
	bp.stats.Evictions.Add(1)
	p.ps.Evictions.Add(1)
	return nil
}
