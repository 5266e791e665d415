package fault

import (
	"errors"
	"testing"

	"recdb/internal/storage"
	"recdb/internal/types"
)

// TestFaultDiskPropagatesThroughHeap pins down the contract the injector
// exists to check: a failed page operation must surface as an error from
// the heap layer, never as silently missing or stale rows.
func TestFaultDiskPropagatesThroughHeap(t *testing.T) {
	d := NewDisk(storage.NewMemDisk())
	pool := storage.NewBufferPool(d, 2, nil)
	h := storage.NewHeapFile(pool)
	// Fill several pages so scans and inserts must touch the disk through
	// the tiny pool.
	pad := make([]byte, 512)
	for i := range pad {
		pad[i] = 'x'
	}
	for i := int64(0); i < 100; i++ {
		if _, err := h.Insert(types.Row{types.NewInt(i), types.NewText(string(pad))}); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 3 {
		t.Fatalf("fixture too small: %d pages", h.NumPages())
	}

	// A failed read must abort the scan with the injected error.
	if err := d.SetPlan(ModeFail, 2); err != nil {
		t.Fatal(err)
	}
	it := h.Scan()
	var scanErr error
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			scanErr = err
			break
		}
		if !ok {
			break
		}
	}
	it.Close()
	if !errors.Is(scanErr, ErrInjected) {
		t.Fatalf("scan over failing disk: err = %v, want ErrInjected", scanErr)
	}

	// With the plan cleared the same scan succeeds again: ModeFail leaves
	// the substrate intact.
	if err := d.SetPlan(ModeNone, 0); err != nil {
		t.Fatal(err)
	}
	it = h.Scan()
	rows := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows++
	}
	it.Close()
	if rows != 100 {
		t.Fatalf("rows after recovery = %d", rows)
	}
}
