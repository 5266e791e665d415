package storage_test

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"recdb/internal/fault"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// This file sweeps page faults through the heap: fault.FaultDisk fails or
// corrupts one page operation of a workload that runs through a 4-frame
// pool, so evictions write pages back throughout. The package is
// storage_test (not storage) because internal/fault imports storage. The
// contract checked is the page layer's: an injected failure surfaces as
// an error from the heap API and leaves no half-done edit behind, and a
// corrupted page never silently drops rows.

// heapRun drives a heap and remembers what it acknowledged: every RID
// that a call returned without error, mapped to the row last written
// there.
type heapRun struct {
	h     *storage.HeapFile
	rids  []storage.RID // current RID of the i-th inserted row
	acked map[storage.RID]string
}

const (
	setupRows    = 40  // inserted before the plan is armed
	workloadRows = 250 // total rows inserted, setup included
)

var (
	smallPad = filler(400)
	// bigPad does not fit beside a page of smallPad rows, so growing a
	// row to it relocates the row.
	bigPad = filler(3000)
)

func filler(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return string(b)
}

func paddedRow(i int64, pad string) types.Row {
	return types.Row{types.NewInt(i), types.NewText(pad)}
}

// newHeapRun builds a heap over disk and fills its first pages with
// setupRows rows.
func newHeapRun(disk storage.DiskManager) (*heapRun, error) {
	w := &heapRun{
		h:     storage.NewHeapFile(storage.NewBufferPool(disk, 4, nil)),
		acked: make(map[storage.RID]string),
	}
	for i := int64(0); i < setupRows; i++ {
		if err := w.insert(i, smallPad); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *heapRun) insert(i int64, pad string) error {
	row := paddedRow(i, pad)
	rid, err := w.h.Insert(row)
	if err != nil {
		return err
	}
	w.rids = append(w.rids, rid)
	w.acked[rid] = row.String()
	return nil
}

func (w *heapRun) update(i int, pad string) error {
	row := paddedRow(int64(1000+i), pad)
	rid, err := w.h.Update(w.rids[i], row)
	if err != nil {
		return err
	}
	delete(w.acked, w.rids[i])
	w.rids[i] = rid
	w.acked[rid] = row.String()
	return nil
}

func (w *heapRun) delete(i int) error {
	if err := w.h.Delete(w.rids[i]); err != nil {
		return err
	}
	delete(w.acked, w.rids[i])
	return nil
}

// workload inserts the remaining rows, rewrites every tenth row at the
// same size, grows every 25th past its page's free space, deletes every
// 17th, and returns the row count a full scan sees.
func (w *heapRun) workload() (int, error) {
	for i := int64(setupRows); i < workloadRows; i++ {
		if err := w.insert(i, smallPad); err != nil {
			return 0, err
		}
	}
	for i := 0; i < workloadRows; i += 10 {
		if err := w.update(i, smallPad); err != nil {
			return 0, err
		}
	}
	for i := 5; i < workloadRows; i += 25 {
		if err := w.update(i, bigPad); err != nil {
			return 0, err
		}
	}
	for i := 7; i < workloadRows; i += 17 {
		if err := w.delete(i); err != nil {
			return 0, err
		}
	}
	return scanCount(w.h)
}

// check asserts the heap holds exactly what was acknowledged: a scan sees
// NumRows rows, as many as were acknowledged, and every acknowledged RID
// reads back its last-written row.
func (w *heapRun) check() error {
	n, err := scanCount(w.h)
	if err != nil {
		return err
	}
	if int64(n) != w.h.NumRows() || n != len(w.acked) {
		return fmt.Errorf("scan sees %d rows, NumRows is %d, %d acknowledged", n, w.h.NumRows(), len(w.acked))
	}
	for rid, want := range w.acked {
		row, err := w.h.Get(rid)
		if err != nil {
			return fmt.Errorf("acknowledged %v: %w", rid, err)
		}
		if row.String() != want {
			return fmt.Errorf("acknowledged %v reads %s, want %s", rid, row, want)
		}
	}
	return nil
}

func scanCount(h *storage.HeapFile) (int, error) {
	it := h.Scan()
	defer it.Close()
	n := 0
	for {
		_, _, ok, err := it.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}

// TestHeapPageFaultSweep injects a fault at every page operation of the
// workload (sampled by default, exhaustive under RECDB_FAULT_SWEEP=1). A
// failed operation must abort the workload with the injected error and
// leave a heap on which one more insert and one more relocating update
// succeed and every acknowledged row reads back. A flipped bit must
// surface as an error or leave the row count intact.
func TestHeapPageFaultSweep(t *testing.T) {
	// Count the workload's page operations with an unarmed injector.
	d := fault.NewDisk(storage.NewMemDisk())
	w, err := newHeapRun(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetPlan(fault.ModeNone, 0); err != nil {
		t.Fatal(err)
	}
	cleanRows, err := w.workload()
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	total := d.Ops()
	if err := w.check(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if total < 50 || cleanRows < 200 {
		t.Fatalf("fixture too small: %d fault points, %d rows", total, cleanRows)
	}

	full := os.Getenv("RECDB_FAULT_SWEEP") == "1"
	stride := int64(1)
	if !full && total > 40 {
		stride = total/40 + 1
	}
	t.Logf("sweeping %d fault points (stride %d, full=%v)", total, stride, full)

	modes := []struct {
		mode fault.Mode
		name string
	}{
		{fault.ModeFail, "fail"},
		{fault.ModeFlip, "flip"},
	}
	for _, m := range modes {
		for n := int64(1); n <= total; n++ {
			if stride > 1 && n%stride != 1 && n != total {
				continue
			}
			tag := fmt.Sprintf("%s@%d", m.name, n)
			d := fault.NewDisk(storage.NewMemDisk())
			w, err := newHeapRun(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SetPlan(m.mode, n); err != nil {
				t.Fatal(err)
			}
			rows, err := w.workload()

			if m.mode == fault.ModeFlip {
				// Silent corruption: the write "succeeds". The workload
				// may finish, or a later read of the flipped page may
				// surface a decode error — both are acceptable; a panic
				// is not (it would have crashed the test binary).
				if err == nil && rows != cleanRows {
					t.Fatalf("%s: silent row loss: %d != %d", tag, rows, cleanRows)
				}
				continue
			}
			// The planned operation itself fails, so the workload must
			// abort with the injector's error — not succeed, not fail
			// with something unrelated.
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("%s: err = %v, want ErrInjected", tag, err)
			}
			if err := d.SetPlan(fault.ModeNone, 0); err != nil {
				t.Fatal(err)
			}
			if err := w.insert(9999, smallPad); err != nil {
				t.Fatalf("%s: insert after the fault: %v", tag, err)
			}
			// Row 1 sits on page 0 among setup rows and no workload step
			// touches it, so growing it must move it.
			if err := w.update(1, bigPad); err != nil {
				t.Fatalf("%s: relocating update after the fault: %v", tag, err)
			}
			if w.rids[1].Page == 0 {
				t.Fatalf("%s: update of row 1 stayed on page 0", tag)
			}
			if err := w.check(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}
}
