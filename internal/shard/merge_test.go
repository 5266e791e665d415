package shard

import (
	"testing"

	"recdb/client"
	"recdb/internal/types"
)

func rowsOf(cols []string, tuples ...[]any) *client.Rows {
	out := make([]types.Row, len(tuples))
	for i, t := range tuples {
		row := make(types.Row, len(t))
		for j, v := range t {
			switch x := v.(type) {
			case int:
				row[j] = types.NewInt(int64(x))
			case float64:
				row[j] = types.NewFloat(x)
			case string:
				row[j] = types.NewText(x)
			default:
				panic("unsupported fixture type")
			}
		}
		out[i] = row
	}
	return client.NewRows(cols, "", out)
}

func scores(res result) []float64 {
	out := make([]float64, len(res.rows))
	for i, r := range res.rows {
		f, _ := r[1].AsFloat()
		out[i] = f
	}
	return out
}

func TestMergeConcatWithoutKeys(t *testing.T) {
	cols := []string{"iid", "score"}
	res := mergeParts([]*client.Rows{
		rowsOf(cols, []any{1, 5.0}),
		nil, // a shard with no answer (e.g. skipped) just contributes nothing
		rowsOf(cols, []any{2, 1.0}, []any{3, 9.0}),
	}, nil)
	if len(res.rows) != 3 {
		t.Fatalf("got %d rows", len(res.rows))
	}
	got := scores(res)
	want := []float64{5.0, 1.0, 9.0} // shard order, not score order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concat order: got %v, want %v", got, want)
		}
	}
}

func TestMergeOrderedTopK(t *testing.T) {
	cols := []string{"iid", "score"}
	// Each shard answers in DESC score order already, as the statement's
	// own ORDER BY guarantees.
	parts := []*client.Rows{
		rowsOf(cols, []any{1, 9.0}, []any{2, 4.0}, []any{3, 1.0}),
		rowsOf(cols, []any{4, 8.0}, []any{5, 7.0}),
		rowsOf(cols, []any{6, 5.0}, []any{7, 2.0}),
	}
	spec := &MergeSpec{Keys: []MergeKey{{Col: "score", Desc: true}}, Limit: 4, Offset: -1}
	res := mergeParts(parts, spec)
	got := scores(res)
	want := []float64{9.0, 8.0, 7.0, 5.0}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged order: got %v, want %v", got, want)
		}
	}
}

func TestMergeOffsetAppliesAfterMerge(t *testing.T) {
	cols := []string{"iid", "score"}
	parts := []*client.Rows{
		rowsOf(cols, []any{1, 1.0}, []any{3, 3.0}),
		rowsOf(cols, []any{2, 2.0}, []any{4, 4.0}),
	}
	spec := &MergeSpec{Keys: []MergeKey{{Col: "score"}}, Limit: 2, Offset: 1}
	res := mergeParts(parts, spec)
	got := scores(res)
	want := []float64{2.0, 3.0} // global offset 1, not per-shard
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeTieBreaksByShardIndex(t *testing.T) {
	cols := []string{"iid", "score"}
	parts := []*client.Rows{
		rowsOf(cols, []any{10, 5.0}),
		rowsOf(cols, []any{20, 5.0}),
	}
	spec := &MergeSpec{Keys: []MergeKey{{Col: "score", Desc: true}}, Limit: -1, Offset: -1}
	res := mergeParts(parts, spec)
	a, _ := res.rows[0][0].AsInt()
	b, _ := res.rows[1][0].AsInt()
	if a != 10 || b != 20 {
		t.Fatalf("tie order: got %d, %d — the lower shard index must win", a, b)
	}
}

func TestMergeMissingKeyColumnFallsBackToConcat(t *testing.T) {
	cols := []string{"iid"}
	parts := []*client.Rows{
		rowsOf(cols, []any{2}),
		rowsOf(cols, []any{1}),
	}
	spec := &MergeSpec{Keys: []MergeKey{{Col: "score"}}, Limit: -1, Offset: -1}
	res := mergeParts(parts, spec)
	a, _ := res.rows[0][0].AsInt()
	if len(res.rows) != 2 || a != 2 {
		t.Fatalf("fallback concat: got %+v", res.rows)
	}
}

func TestMergeEmptyParts(t *testing.T) {
	res := mergeParts([]*client.Rows{nil, nil}, nil)
	if len(res.rows) != 0 {
		t.Fatalf("got %+v", res)
	}
}
