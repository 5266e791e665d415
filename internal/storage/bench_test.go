package storage

import (
	"testing"

	"recdb/internal/types"
)

func BenchmarkHeapInsert(b *testing.B) {
	h := NewHeapFile(NewBufferPool(NewMemDisk(), 1024, nil))
	row := types.Row{types.NewInt(1), types.NewInt(2), types.NewFloat(4.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapAppendTuples stores BenchmarkHeapInsert's rows as one
// batch: ns/op is per row, encoding included.
func BenchmarkHeapAppendTuples(b *testing.B) {
	h := NewHeapFile(NewBufferPool(NewMemDisk(), 1024, nil))
	row := types.Row{types.NewInt(1), types.NewInt(2), types.NewFloat(4.5)}
	b.ResetTimer()
	var slab []byte
	ends := make([]int, b.N)
	for i := range ends {
		slab = types.EncodeRow(slab, row)
		ends[i] = len(slab)
	}
	tuples := make([][]byte, b.N)
	for i, start := 0, 0; i < b.N; i++ {
		tuples[i], start = slab[start:ends[i]], ends[i]
	}
	if _, err := h.AppendTuples(tuples); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkHeapScan(b *testing.B) {
	h := NewHeapFile(NewBufferPool(NewMemDisk(), 1024, nil))
	row := types.Row{types.NewInt(1), types.NewInt(2), types.NewFloat(4.5)}
	for i := 0; i < 10000; i++ {
		h.Insert(row)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.Scan()
		for {
			_, _, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		it.Close()
	}
}

func BenchmarkBufferPoolFetchHit(b *testing.B) {
	bp := NewBufferPool(NewMemDisk(), 16, nil)
	id, _, err := bp.NewPage()
	if err != nil {
		b.Fatal(err)
	}
	bp.Unpin(id, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Fetch(id); err != nil {
			b.Fatal(err)
		}
		bp.Unpin(id, false)
	}
}

func BenchmarkEncodeDecodeRow(b *testing.B) {
	row := types.Row{types.NewInt(12345), types.NewInt(678), types.NewFloat(4.5), types.NewText("genre")}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = types.EncodeRow(buf[:0], row)
		if _, _, err := types.DecodeRow(buf); err != nil {
			b.Fatal(err)
		}
	}
}
