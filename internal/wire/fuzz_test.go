package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"recdb/internal/geo"
	"recdb/internal/types"
)

// chunkReader hands out at most max bytes per Read, so one stream reaches
// the Reader's refill, compaction and growth paths at every alignment.
type chunkReader struct {
	data []byte
	max  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), c.max, len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// FuzzReader sends arbitrary bytes down a connection. The peeking Reader
// must answer every stream with frames, a clean io.EOF at a frame
// boundary, or a *FrameError — never a panic, never a frame whose bytes
// did not arrive, and never a buffer past the one frame MaxFrameSize
// allows. Each frame it accepts re-encodes to the bytes it was read from.
// The same bytes also go to every payload decoder as a payload (no panic),
// to the relay's RowBatch check, which must agree with DecodeRowBatch on
// every payload, and, framed by the writer, back through the Reader. The seeds are the frames and
// the damage of the table tests in wire_test.go, so the corpus runs under
// plain `go test`.
func FuzzReader(f *testing.F) {
	frame := func(t Type, payload []byte) []byte {
		b, err := AppendFrame(nil, t, payload)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	row := types.Row{types.NewInt(7), types.NewText("x"), types.Null()}
	frames := [][]byte{
		frame(TypeQuery, AppendRequest(nil, Request{ID: 1, TimeoutMillis: 50, SQL: "SELECT 1"})),
		frame(TypeExec, AppendRequest(nil, Request{ID: 2, SQL: "INSERT INTO t VALUES (1)"})),
		frame(TypePing, AppendID(nil, 3)),
		frame(TypeHello, AppendHello(nil, Hello{SessionID: 9, Server: "recdb"})),
		frame(TypeRowDesc, AppendRowDesc(nil, RowDesc{ID: 1, Strategy: "IndexScan", Columns: []string{"uid", "iid"}})),
		frame(TypeRowBatch, AppendRowBatch(nil, 1, []types.Row{row})),
		frame(TypeRowBatch, AppendRowBatch(nil, 1, []types.Row{row, row})),
		frame(TypeComplete, AppendComplete(nil, Complete{ID: 1, Rows: 2})),
		frame(TypeError, AppendError(nil, ErrorMsg{ID: 1, Code: CodeTimeout, Message: "deadline"})),
	}
	var stream []byte
	for _, fr := range frames {
		f.Add(fr, uint8(0))
		f.Add(fr[frameHeaderSize+1:], uint8(3)) // the bare payload, for the decoders
		stream = append(stream, fr...)
	}
	f.Add(stream, uint8(1))
	f.Add(stream, uint8(255))
	f.Add(stream[:len(stream)-3], uint8(7)) // torn payload
	f.Add(stream[:len(frames[0])+5], uint8(2))
	flipped := append([]byte(nil), frames[0]...)
	flipped[12] ^= 0x40 // bad CRC
	f.Add(flipped, uint8(4))
	oversized := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(oversized, MaxFrameSize+1)
	f.Add(oversized, uint8(8))
	f.Add(make([]byte, frameHeaderSize), uint8(8)) // zero-length frame
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 0, 0x80, 0x80, 0x80, 0x08}, uint8(0)) // a batch of 2^24 tuples, it says
	// RowBatch payloads for the relay's check: every value kind, a tuple
	// with a kind no encoding uses, a bad GEOMETRY, and trailing bytes.
	geom, err := geo.Parse("POINT(1 2)")
	if err != nil {
		f.Fatal(err)
	}
	wide := types.Row{types.NewFloat(-0.5), types.NewBool(true), types.NewGeometry(geom), types.NewText(""), types.NewInt(-1 << 40)}
	batch := AppendRowBatch(nil, 9, []types.Row{wide, row})
	f.Add(batch, uint8(3))
	badKind := append([]byte(nil), batch...)
	badKind[6] = 0xee // the first tuple's first value kind
	f.Add(badKind, uint8(3))
	f.Add(AppendRowBatch(nil, 9, []types.Row{{types.NewText("POINT(")}}), uint8(3))
	badGeom := AppendRowBatch(nil, 9, []types.Row{{types.NewText("POINT(")}})
	badGeom[6] = byte(types.KindGeometry)
	f.Add(badGeom, uint8(3))
	f.Add(append(append([]byte(nil), batch...), 0), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		fr := NewReader(&chunkReader{data: data, max: int(chunk) + 1})
		consumed := 0
		for {
			typ, payload, err := fr.Next()
			if err != nil {
				var fe *FrameError
				if err == io.EOF {
					if consumed != len(data) {
						t.Fatalf("clean EOF with %d of %d bytes consumed", consumed, len(data))
					}
				} else if !errors.As(err, &fe) {
					t.Fatalf("error is neither io.EOF nor a *FrameError: %v", err)
				}
				break
			}
			again, err := AppendFrame(nil, typ, payload)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			if consumed+len(again) > len(data) || !bytes.Equal(again, data[consumed:consumed+len(again)]) {
				t.Fatalf("frame at offset %d is not the bytes that arrived", consumed)
			}
			consumed += len(again)
		}
		if cap(fr.buf) > frameHeaderSize+MaxFrameSize {
			t.Fatalf("reader buffer grew to %d bytes, past one maximal frame", cap(fr.buf))
		}

		// As a payload: no decoder panics.
		_, _ = DecodeRequest(data)
		_, _ = DecodeID(data)
		_, _ = DecodeHello(data)
		_, _ = DecodeRowDesc(data)
		_, _ = DecodeComplete(data)
		_, _ = DecodeError(data)

		// The relay's check and the decoder agree on every payload: both
		// refuse it with the same error, or both accept it with the same id
		// and count, and the checked tuples decode to the decoder's rows.
		id, rows, derr := DecodeRowBatch(data)
		cid, n, tuples, cerr := CheckRowBatch(data)
		if (derr == nil) != (cerr == nil) || derr != nil && derr.Error() != cerr.Error() {
			t.Fatalf("DecodeRowBatch: %v; CheckRowBatch: %v", derr, cerr)
		}
		if derr == nil {
			if cid != id || n != len(rows) {
				t.Fatalf("CheckRowBatch read id %d and %d tuples, DecodeRowBatch %d and %d", cid, n, id, len(rows))
			}
			for i, want := range rows {
				got, used, err := types.DecodeRow(tuples)
				if err != nil {
					t.Fatalf("checked tuple %d does not decode: %v", i, err)
				}
				if len(got) != len(want) {
					t.Fatalf("tuple %d: %d values, DecodeRowBatch has %d", i, len(got), len(want))
				}
				for j, v := range got {
					w := want[j]
					if v.Kind() != w.Kind() || v.String() != w.String() || math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
						t.Fatalf("tuple %d value %d: %v, DecodeRowBatch has %v", i, j, v, w)
					}
				}
				tuples = tuples[used:]
			}
			if len(tuples) != 0 {
				t.Fatalf("%d bytes past the checked tuples", len(tuples))
			}
		}

		// Framed by the writer, the bytes come back as one frame.
		framed, err := AppendFrame(nil, Type(chunk), data)
		if err != nil {
			t.Fatal(err)
		}
		typ, payload, err := NewReader(&chunkReader{data: framed, max: int(chunk) + 1}).Next()
		if err != nil || typ != Type(chunk) || !bytes.Equal(payload, data) {
			t.Fatalf("round trip through the reader: type %d, %d bytes, %v", typ, len(payload), err)
		}
	})
}
