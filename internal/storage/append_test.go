package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"recdb/internal/types"
)

// appendRows returns n rows whose encoded sizes vary from a few bytes to a
// sixth of a page, so page boundaries fall at irregular places.
func appendRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewText(strings.Repeat("x", rng.Intn(PageSize/6)))}
	}
	return rows
}

func encodeAll(rows []types.Row) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = types.EncodeRow(nil, r)
	}
	return out
}

func scanAll(t *testing.T, it *Iterator) (rows []string, rids []RID) {
	t.Helper()
	defer it.Close()
	for {
		row, rid, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return rows, rids
		}
		rows = append(rows, row.String())
		rids = append(rids, rid)
	}
}

// TestAppendTuplesMatchesInsert: on an empty heap and on one whose last
// page is part full (the top-up path), with and without a snapshot open
// (the copy-on-write path), AppendTuples returns the RIDs a loop of Insert
// returns and leaves the same heap behind.
func TestAppendTuplesMatchesInsert(t *testing.T) {
	for _, prefill := range []int{0, 3, 40} {
		for _, pinned := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefill=%d/snapshot=%v", prefill, pinned), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(prefill) + 11))
				first, batch := appendRows(rng, prefill), appendRows(rng, 300)
				bulk, ref := newTestHeap(t, 8), newTestHeap(t, 8)
				for _, r := range first {
					for _, h := range []*HeapFile{bulk, ref} {
						if _, err := h.Insert(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				if pinned {
					defer bulk.Snapshot().Close()
				}
				var want []RID
				for _, r := range batch {
					rid, err := ref.Insert(r)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, rid)
				}
				got, err := bulk.AppendTuples(encodeAll(batch))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("AppendTuples RIDs differ from Insert's:\n got %v\nwant %v", got, want)
				}
				gotRows, gotRIDs := scanAll(t, bulk.Scan())
				wantRows, wantRIDs := scanAll(t, ref.Scan())
				if !reflect.DeepEqual(gotRows, wantRows) || !reflect.DeepEqual(gotRIDs, wantRIDs) {
					t.Fatal("heaps differ after the batch")
				}
				if bulk.NumRows() != ref.NumRows() || bulk.NumPages() != ref.NumPages() {
					t.Fatalf("bulk heap has %d rows / %d pages, reference %d / %d",
						bulk.NumRows(), bulk.NumPages(), ref.NumRows(), ref.NumPages())
				}
			})
		}
	}
}

// TestAppendTuplesSnapshots: a snapshot opened before the batch sees none
// of it — including the tuples that topped up a page the snapshot can
// read — and one opened after sees all of it.
func TestAppendTuplesSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := newTestHeap(t, 8)
	first := appendRows(rng, 5)
	for _, r := range first {
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	before := h.Snapshot()
	defer before.Close()
	gens := before.Seq()

	batch := appendRows(rng, 200)
	if _, err := h.AppendTuples(encodeAll(batch)); err != nil {
		t.Fatal(err)
	}
	after := h.Snapshot()
	defer after.Close()

	if rows, _ := scanAll(t, before.Scan()); len(rows) != len(first) {
		t.Fatalf("snapshot from before the batch sees %d rows, want %d", len(rows), len(first))
	}
	rows, _ := scanAll(t, after.Scan())
	if len(rows) != len(first)+len(batch) {
		t.Fatalf("snapshot from after the batch sees %d rows, want %d", len(rows), len(first)+len(batch))
	}
	for i, r := range batch {
		if rows[len(first)+i] != r.String() {
			t.Fatalf("row %d of the batch reads back as %s", i, rows[len(first)+i])
		}
	}
	// One generation for the topped-up page and one per fresh page.
	if got, want := after.Seq()-gens, uint64(after.NumPages()-before.NumPages())+1; got != want {
		t.Fatalf("batch published %d generations, want %d (one per page touched)", got, want)
	}
}

// TestAppendTuplesOversize: a tuple no page can hold fails the whole call
// and leaves the heap exactly as it was.
func TestAppendTuplesOversize(t *testing.T) {
	h := newTestHeap(t, 8)
	if _, err := h.Insert(types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	seq, pages, rows := h.state.Load().seq, h.NumPages(), h.NumRows()
	batch := encodeAll([]types.Row{
		{types.NewInt(2)},
		{types.NewText(strings.Repeat("y", PageSize))},
		{types.NewInt(3)},
	})
	if _, err := h.AppendTuples(batch); err == nil {
		t.Fatal("AppendTuples stored a tuple larger than a page")
	}
	if _, err := h.AppendTuples([][]byte{{}}); err == nil {
		t.Fatal("AppendTuples stored an empty tuple")
	}
	if st := h.state.Load(); st.seq != seq || st.numPages != pages || st.rowCount != rows {
		t.Fatalf("failed batch moved the heap to seq %d, %d pages, %d rows", st.seq, st.numPages, st.rowCount)
	}
	if got, _ := scanAll(t, h.Scan()); len(got) != 1 {
		t.Fatalf("heap holds %d rows after the failed batch, want 1", len(got))
	}
}
