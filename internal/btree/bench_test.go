package btree

import (
	"testing"

	"recdb/internal/types"
)

func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	tr := New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(intKey(int64(i)), i)
	}
}

// BenchmarkLoad builds BenchmarkInsert's tree bottom-up: ns/op is per key,
// the run's construction included.
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	slab := make([]types.Value, b.N)
	vals := make([]any, b.N)
	for i := range vals {
		slab[i] = types.NewInt(int64(i))
		vals[i] = i
	}
	if _, err := Load(0, 1, slab, vals); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New(0)
	const n = 100000
	for i := int64(0); i < n; i++ {
		tr.Insert(intKey(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(intKey(int64(i) % n))
	}
}

func BenchmarkDescendTop10(b *testing.B) {
	// The IndexRecommend access pattern: read the 10 highest keys.
	tr := New(0)
	for i := int64(0); i < 10000; i++ {
		tr.Insert(types.Row{types.NewFloat(float64(i) / 100), types.NewInt(i)}, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Descend(nil, func(types.Row, any) bool {
			count++
			return count < 10
		})
	}
}
