// Package storage implements the paged storage layer: 8 KB slotted pages,
// disk managers (file-backed and in-memory), an LRU buffer pool with
// pin/unpin and I/O accounting, and heap files with block-by-block
// iterators. The paper's recommendation operators (Algorithms 1-3) are
// block-nested-loop algorithms over heap tables in PostgreSQL; here they
// read the model in memory (package rec), and the pages hold the user
// tables they filter and join with.
package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// PageSize is the fixed size of every page, matching PostgreSQL's default.
const PageSize = 8192

// PageID identifies a page within one disk manager (i.e. one heap file).
type PageID uint32

// InvalidPageID is a sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// DiskManager provides raw page I/O for one storage object.
type DiskManager interface {
	// ReadPage fills buf (len PageSize) with the contents of page id.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the contents of page id.
	WritePage(id PageID, buf []byte) error
	// Allocate extends the object by one zeroed page and returns its id.
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() uint32
	// Sync flushes to stable storage (no-op for memory).
	Sync() error
	// Close releases resources.
	Close() error
}

// MemDisk is an in-memory DiskManager. It is the default substrate for the
// embeddable engine and for benchmarks (the paper's experiments all run
// with a warm buffer cache; MemDisk keeps the block-access structure while
// removing device variance).
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

// NumPages implements DiskManager.
func (m *MemDisk) NumPages() uint32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return uint32(len(m.pages))
}

// Sync implements DiskManager.
func (m *MemDisk) Sync() error { return nil }

// Close implements DiskManager.
func (m *MemDisk) Close() error { return nil }

// FileDisk is a DiskManager backed by a single OS file.
type FileDisk struct {
	mu   sync.Mutex
	f    *os.File
	n    uint32
	path string
}

// OpenFileDisk opens (or creates) the file at path as a page store.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("storage: %s has size %d, not a multiple of the page size", path, st.Size())
	}
	return &FileDisk{f: f, n: uint32(st.Size() / PageSize), path: path}, nil
}

// ReadPage implements DiskManager.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint32(id) >= d.n {
		return fmt.Errorf("storage: read of unallocated page %d in %s", id, d.path)
	}
	// A short read means the file lost data (truncation, torn write): an
	// allocated page must come back whole, so io.EOF is an error here.
	// The io.ReaderAt contract does allow a full read ending exactly at
	// end-of-file to report io.EOF alongside n == len(p); that one is
	// success, not corruption.
	n, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err == io.EOF && n == PageSize {
		err = nil
	}
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("storage: read page %d of %s: %w: got %d of %d bytes",
				id, d.path, io.ErrUnexpectedEOF, n, PageSize)
		}
		return fmt.Errorf("storage: read page %d of %s: %w", id, d.path, err)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint32(id) >= d.n {
		return fmt.Errorf("storage: write of unallocated page %d in %s", id, d.path)
	}
	if _, err := d.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d of %s: %w", id, d.path, err)
	}
	return nil
}

// Allocate implements DiskManager.
func (d *FileDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.n)
	zero := make([]byte, PageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return InvalidPageID, fmt.Errorf("storage: extend %s: %w", d.path, err)
	}
	d.n++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Sync implements DiskManager.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close implements DiskManager.
func (d *FileDisk) Close() error { return d.f.Close() }
