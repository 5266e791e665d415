// Package storage implements the paged storage layer: 8 KB slotted pages
// kept in memory, an LRU buffer pool with pin/unpin and I/O accounting,
// and heap files with block-by-block iterators. The paper's
// recommendation operators (Algorithms 1-3) are block-nested-loop
// algorithms over heap tables in PostgreSQL; here they read the model in
// memory (package rec), and the pages hold the user tables they filter
// and join with. Pages are never the durable copy of a table: that is
// the row snapshot plus the logical WAL (package persist).
package storage

import (
	"fmt"
	"sync"
)

// PageSize is the fixed size of every page, matching PostgreSQL's default.
const PageSize = 8192

// PageID identifies a page within one disk manager (i.e. one heap file).
type PageID uint32

// InvalidPageID is a sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// DiskManager provides raw page I/O for one heap. MemDisk is the only
// implementation outside tests; the interface lets a fault injector stand
// in for it.
type DiskManager interface {
	// ReadPage fills buf (len PageSize) with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (len PageSize) as the contents of page id.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the object by one zeroed page and returns its id.
	Allocate() (PageID, error)
}

// MemDisk is the in-memory DiskManager every heap sits on. The buffer
// pool in front of it keeps the paper's block-access structure (pins,
// misses, evictions, write-backs) while the paper's experiments, which
// all run with a warm buffer cache, see no device variance.
type MemDisk struct {
	mu    sync.RWMutex
	pages [][]byte
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// ReadPage implements DiskManager.
func (m *MemDisk) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (m *MemDisk) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(id) >= len(m.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(m.pages[id], buf)
	return nil
}

// Allocate implements DiskManager.
func (m *MemDisk) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}
