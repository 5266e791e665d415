package fault

import (
	"fmt"
	"sync"

	"recdb/internal/storage"
)

// FaultDisk wraps a storage.DiskManager and injects one fault at a planned
// page operation, so tests can check that the buffer pool and heap
// propagate a failed page operation as an error and leave no half-done
// edit behind, and that a corrupted page is never served as good rows.
// Pages live only in memory, so a crash loses them all and there is no
// torn write or power cut to model here: FaultDisk knows fail and flip.
type FaultDisk struct {
	inner storage.DiskManager

	mu   sync.Mutex
	ops  int64
	mode Mode
	at   int64
}

// NewDisk wraps inner with an unarmed injector.
func NewDisk(inner storage.DiskManager) *FaultDisk {
	return &FaultDisk{inner: inner}
}

// SetPlan arms the injector at the at-th page operation (1-based) and
// resets the counter. Only ModeNone, ModeFail and ModeFlip apply to pages;
// any other mode is an error and leaves the plan as it was.
func (d *FaultDisk) SetPlan(mode Mode, at int64) error {
	switch mode {
	case ModeNone, ModeFail, ModeFlip:
	default:
		return fmt.Errorf("fault: page injector has no mode %d", mode)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mode, d.at = mode, at
	d.ops = 0
	return nil
}

// Ops returns the page operations counted since the last SetPlan.
func (d *FaultDisk) Ops() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// step counts one operation and decides its fate; isWrite marks WritePage.
func (d *FaultDisk) step(isWrite bool) action {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ops++
	if d.ops != d.at {
		return actProceed
	}
	switch {
	case d.mode == ModeFail:
		return actFail
	case d.mode == ModeFlip && isWrite:
		return actFlip
	}
	return actProceed
}

// ReadPage implements storage.DiskManager.
func (d *FaultDisk) ReadPage(id storage.PageID, buf []byte) error {
	if d.step(false) == actFail {
		return fmt.Errorf("fault: read page %d: %w", id, ErrInjected)
	}
	return d.inner.ReadPage(id, buf)
}

// WritePage implements storage.DiskManager. A flip fault corrupts one bit
// and reports success.
func (d *FaultDisk) WritePage(id storage.PageID, buf []byte) error {
	switch d.step(true) {
	case actFail:
		return fmt.Errorf("fault: write page %d: %w", id, ErrInjected)
	case actFlip:
		flipped := append([]byte(nil), buf...)
		flipped[len(flipped)/2] ^= 1
		return d.inner.WritePage(id, flipped)
	}
	return d.inner.WritePage(id, buf)
}

// Allocate implements storage.DiskManager.
func (d *FaultDisk) Allocate() (storage.PageID, error) {
	if d.step(false) == actFail {
		return storage.InvalidPageID, fmt.Errorf("fault: allocate: %w", ErrInjected)
	}
	return d.inner.Allocate()
}
