package client_test

import (
	"bytes"
	"math"
	"testing"

	"recdb/client"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// answerBatch encodes a RowBatch of n rows shaped like the ledger's point
// read, (iid BIGINT, ratingval DOUBLE), with a TEXT column beside them.
func answerBatch(n int) []byte {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i * 37)), types.NewFloat(float64(i%5) + 0.5), types.NewText("note")}
	}
	return wire.AppendRowBatch(nil, 1, rows)
}

// TestRowsDecodeAllocsConstant: decoding an answer of n tuples allocates
// the same small number of times whatever n is — the rows array, one
// slab of values and one string the TEXT values are cut from — where a
// row per tuple was allocated before.
func TestRowsDecodeAllocsConstant(t *testing.T) {
	measure := func(n int) float64 {
		payload := answerBatch(n)
		return testing.AllocsPerRun(20, func() {
			rows, err := client.RowsFromBatchesForTest(payload)
			if err != nil || len(rows.All()) != n {
				t.Fatalf("%d rows: %v", n, err)
			}
		})
	}
	small, large := measure(10), measure(2000)
	if small != large || large > 6 {
		t.Fatalf("decoding allocates %v times for 10 tuples, %v for 2000", small, large)
	}
}

// FuzzRowsDecode: on any RowBatch payload the relay's check accepts, the
// client's slab decode makes exactly the rows a per-tuple types.DecodeRow
// makes — compared by their encodings, so NaN bits count — each clipped
// to its length.
func FuzzRowsDecode(f *testing.F) {
	f.Add(answerBatch(3))
	f.Add(wire.AppendRowBatch(nil, 9, []types.Row{
		{types.Null(), types.NewBool(true), types.NewFloat(math.NaN()), types.NewText("")},
		{types.NewInt(math.MinInt64)},
		{},
	}))
	f.Add(wire.AppendRowBatch(nil, 2, nil))
	f.Add([]byte{1, 0, 0, 0, 2, 1, 1, 0, 3, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, n, tuples, err := wire.CheckRowBatch(payload)
		if err != nil {
			return
		}
		rows, err := client.RowsFromBatchesForTest(payload)
		if err != nil {
			t.Fatalf("checked payload refused: %v", err)
		}
		got := rows.All()
		if len(got) != n {
			t.Fatalf("%d rows decoded, %d checked", len(got), n)
		}
		for i, rest := 0, tuples; i < n; i++ {
			want, used, err := types.DecodeRow(rest)
			if err != nil {
				t.Fatalf("tuple %d: %v", i, err)
			}
			rest = rest[used:]
			if len(got[i]) != cap(got[i]) {
				t.Fatalf("row %d: len %d, cap %d", i, len(got[i]), cap(got[i]))
			}
			if g, w := types.EncodeRow(nil, got[i]), types.EncodeRow(nil, want); !bytes.Equal(g, w) {
				t.Fatalf("row %d: slab decode %v, per-tuple decode %v", i, got[i], want)
			}
		}
	})
}
