package client_test

import (
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"recdb/client"
	"recdb/internal/server"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// rawQuery runs sql over a connection of its own without the client and
// decodes every RowBatch as it arrives, the way the client did before it
// kept tuples encoded.
func rawQuery(t *testing.T, addr, sql string) (cols []string, rows []types.Row, batches int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	in := wire.NewReader(conn)
	if typ, _, err := in.Next(); err != nil || typ != wire.TypeHello {
		t.Fatalf("handshake: %q %v", byte(typ), err)
	}
	if err := wire.WriteFrame(conn, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{ID: 1, SQL: sql})); err != nil {
		t.Fatal(err)
	}
	for {
		typ, p, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.TypeRowDesc:
			d, err := wire.DecodeRowDesc(p)
			if err != nil {
				t.Fatal(err)
			}
			cols = d.Columns
		case wire.TypeRowBatch:
			_, batch, err := wire.DecodeRowBatch(p)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, batch...)
			batches++
		case wire.TypeComplete:
			return cols, rows, batches
		default:
			t.Fatalf("unexpected frame %q", byte(typ))
		}
	}
}

// sameRows compares rows value by value, floats by their bits.
func sameRows(a, b []types.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d values vs %d", i, len(a[i]), len(b[i]))
		}
		for j, v := range a[i] {
			w := b[i][j]
			if v.Kind() != w.Kind() || v.String() != w.String() ||
				math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
				return fmt.Errorf("row %d value %d: %v vs %v", i, j, v, w)
			}
		}
	}
	return nil
}

// A Rows keeps its tuples encoded until a row is asked for: decoded then,
// they equal what decoding every RowBatch on arrival gives, over an answer
// of several batches with every value kind, and Len is the row count
// before and after iteration starts.
func TestLazyRowsEqualEagerRows(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx := context.Background()
	if _, err := c.Exec(ctx, `CREATE TABLE mix (k INT, f FLOAT, s TEXT, b BOOLEAN, g GEOMETRY)`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for k := 0; k < 3000; k++ {
		switch k % 3 {
		case 0:
			vals = append(vals, fmt.Sprintf("(%d, %d.25, 'text %s', TRUE, 'POINT(%d 1)')", k, k, strings.Repeat("z", k%40), k))
		case 1:
			vals = append(vals, fmt.Sprintf("(%d, -%d.5e-3, 'it''s', FALSE, NULL)", -k, k))
		default:
			vals = append(vals, fmt.Sprintf("(%d, NULL, NULL, NULL, NULL)", k))
		}
	}
	if _, err := c.Exec(ctx, `INSERT INTO mix VALUES `+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT k, f, s, b, g FROM mix`
	cols, eager, batches := rawQuery(t, addr, query)
	if batches < 2 {
		t.Fatalf("the answer took %d RowBatch frames; the test needs several", batches)
	}

	rows, err := c.Query(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != len(eager) {
		t.Fatalf("Len before the first Next = %d, want %d", rows.Len(), len(eager))
	}
	tuples, n, ok := rows.Encoded()
	if !ok || n != len(eager) {
		t.Fatalf("Encoded before decoding: %d tuples, ok %v; want %d, true", n, ok, len(eager))
	}
	var fromBytes []types.Row
	for rest := tuples; len(rest) > 0; {
		row, used, err := types.DecodeRow(rest)
		if err != nil {
			t.Fatal(err)
		}
		fromBytes, rest = append(fromBytes, row), rest[used:]
	}
	if err := sameRows(fromBytes, eager); err != nil {
		t.Fatalf("encoded tuples: %v", err)
	}

	if !rows.Next() || !rows.Next() {
		t.Fatal("Next found no rows")
	}
	if rows.Len() != len(eager) {
		t.Fatalf("Len after Next = %d, want %d", rows.Len(), len(eager))
	}
	if _, _, ok := rows.Encoded(); ok {
		t.Fatal("Encoded still offers the tuples after they were decoded")
	}
	if err := sameRows([]types.Row{rows.Row()}, eager[1:2]); err != nil {
		t.Fatalf("Row after two Nexts: %v", err)
	}
	if got := rows.Columns(); strings.Join(got, ",") != strings.Join(cols, ",") {
		t.Fatalf("columns %v, want %v", got, cols)
	}
	if err := sameRows(rows.All(), eager); err != nil {
		t.Fatalf("decoded rows: %v", err)
	}

	// An empty answer decodes to no rows and Len 0.
	empty, err := c.Query(ctx, `SELECT k FROM mix WHERE k = 99999`)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 || empty.Next() || empty.All() != nil {
		t.Fatalf("empty answer: Len %d, rows %v", empty.Len(), empty.All())
	}
}
