package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"recdb/internal/types"
)

// TestFrameGolden pins the exact bytes of one frame so the format cannot
// drift silently: a protocol change must change this fixture on purpose.
func TestFrameGolden(t *testing.T) {
	var buf bytes.Buffer
	payload := AppendRequest(nil, Request{ID: 7, TimeoutMillis: 250, SQL: "SELECT 1"})
	if err := WriteFrame(&buf, TypeQuery, payload); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x11, 0x00, 0x00, 0x00, // len = 17 (type + 8 header bytes + 8 SQL bytes)
		0x06, 0x96, 0x88, 0xf4, // crc32c over type+payload
		'Q',
		0x07, 0x00, 0x00, 0x00, // id = 7
		0xfa, 0x00, 0x00, 0x00, // timeout = 250ms
		'S', 'E', 'L', 'E', 'C', 'T', ' ', '1',
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame bytes drifted:\n got %#v\nwant %#v", buf.Bytes(), want)
	}
}

// TestRowBatchGolden pins the exact bytes of a multi-row batch frame: the
// request id, a uvarint tuple count, then the tuples back to back in the
// engine encoding. A change to any layer of the encoding must show up
// here on purpose.
func TestRowBatchGolden(t *testing.T) {
	var buf bytes.Buffer
	rows := []types.Row{
		{types.NewInt(1), types.NewText("a")},
		{types.NewInt(-2), types.NewText("bc")},
	}
	if err := WriteFrame(&buf, TypeRowBatch, AppendRowBatch(nil, 9, rows)); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x13, 0x00, 0x00, 0x00, // len = 19 (type + 4 id + 1 count + 13 tuple bytes)
		0x7b, 0xe0, 0x70, 0x0a, // crc32c over type+payload
		'r',
		0x09, 0x00, 0x00, 0x00, // id = 9
		0x02,                              // 2 tuples
		0x02, 0x01, 0x02, 0x03, 0x01, 'a', // row 1: int 1 (zigzag 2), text "a"
		0x02, 0x01, 0x03, 0x03, 0x02, 'b', 'c', // row 2: int -2 (zigzag 3), text "bc"
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame bytes drifted:\n got %#v\nwant %#v", buf.Bytes(), want)
	}
	id, got, err := DecodeRowBatch(buf.Bytes()[9:])
	if err != nil || id != 9 || len(got) != 2 {
		t.Fatalf("decode = id %d, %d rows, %v", id, len(got), err)
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j].String() != rows[i][j].String() {
				t.Fatalf("row %d value %d = %v, want %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

// TestRoundTrip encodes and decodes every frame kind through a stream.
func TestRoundTrip(t *testing.T) {
	row := types.Row{types.NewInt(42), types.NewFloat(4.5), types.NewText("hi"), types.NewBool(true), types.Null()}
	var stream bytes.Buffer
	write := func(ft Type, payload []byte) {
		t.Helper()
		if err := WriteFrame(&stream, ft, payload); err != nil {
			t.Fatal(err)
		}
	}
	write(TypeHello, AppendHello(nil, Hello{SessionID: 9, Server: "recdb-server/1"}))
	write(TypeQuery, AppendRequest(nil, Request{ID: 1, SQL: "SELECT * FROM t"}))
	write(TypeExec, AppendRequest(nil, Request{ID: 2, TimeoutMillis: 1000, SQL: "INSERT INTO t VALUES (1)"}))
	write(TypePing, AppendID(nil, 3))
	write(TypeCancel, AppendID(nil, 1))
	write(TypeRowDesc, AppendRowDesc(nil, RowDesc{ID: 1, Strategy: "IndexRecommend", Columns: []string{"iid", "ratingval"}}))
	write(TypeRowBatch, AppendRowBatch(nil, 1, []types.Row{row}))
	write(TypeRowBatch, AppendRowBatch(nil, 1, []types.Row{row, row, row}))
	write(TypeComplete, AppendComplete(nil, Complete{ID: 1, Rows: 5}))
	write(TypePong, AppendID(nil, 3))
	write(TypeError, AppendError(nil, ErrorMsg{ID: 2, Code: CodeTimeout, Message: "query timed out"}))

	var buf []byte
	next := func(want Type) []byte {
		t.Helper()
		ft, payload, nbuf, err := ReadFrame(&stream, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = nbuf
		if ft != want {
			t.Fatalf("frame type %c, want %c", ft, want)
		}
		return payload
	}

	h, err := DecodeHello(next(TypeHello))
	if err != nil || h.SessionID != 9 || h.Server != "recdb-server/1" {
		t.Fatalf("hello = %+v, %v", h, err)
	}
	q, err := DecodeRequest(next(TypeQuery))
	if err != nil || q.ID != 1 || q.TimeoutMillis != 0 || q.SQL != "SELECT * FROM t" {
		t.Fatalf("query = %+v, %v", q, err)
	}
	e, err := DecodeRequest(next(TypeExec))
	if err != nil || e.ID != 2 || e.TimeoutMillis != 1000 || e.SQL != "INSERT INTO t VALUES (1)" {
		t.Fatalf("exec = %+v, %v", e, err)
	}
	if id, err := DecodeID(next(TypePing)); err != nil || id != 3 {
		t.Fatalf("ping id = %d, %v", id, err)
	}
	if id, err := DecodeID(next(TypeCancel)); err != nil || id != 1 {
		t.Fatalf("cancel id = %d, %v", id, err)
	}
	d, err := DecodeRowDesc(next(TypeRowDesc))
	if err != nil || d.ID != 1 || d.Strategy != "IndexRecommend" || !reflect.DeepEqual(d.Columns, []string{"iid", "ratingval"}) {
		t.Fatalf("rowdesc = %+v, %v", d, err)
	}
	for _, want := range []int{1, 3} {
		bid, batch, err := DecodeRowBatch(next(TypeRowBatch))
		if err != nil || bid != 1 || len(batch) != want {
			t.Fatalf("rowbatch = id %d, %d rows, %v; want %d rows", bid, len(batch), err, want)
		}
		for _, b := range batch {
			if len(b) != len(row) {
				t.Fatalf("row has %d values, want %d", len(b), len(row))
			}
			for i := range row {
				if b[i].String() != row[i].String() {
					t.Fatalf("batch value %d = %v, want %v", i, b[i], row[i])
				}
			}
		}
	}
	c, err := DecodeComplete(next(TypeComplete))
	if err != nil || c.ID != 1 || c.Rows != 5 {
		t.Fatalf("complete = %+v, %v", c, err)
	}
	if id, err := DecodeID(next(TypePong)); err != nil || id != 3 {
		t.Fatalf("pong id = %d, %v", id, err)
	}
	em, err := DecodeError(next(TypeError))
	if err != nil || em.ID != 2 || em.Code != CodeTimeout || em.Message != "query timed out" {
		t.Fatalf("error = %+v, %v", em, err)
	}
	if _, _, _, err := ReadFrame(&stream, buf); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// decoders are the two ways a frame comes off a stream; every rejection
// below must hold through both.
var decoders = []struct {
	name   string
	decode func(raw []byte) (Type, []byte, error)
}{
	{"ReadFrame", func(raw []byte) (Type, []byte, error) {
		t, p, _, err := ReadFrame(bytes.NewReader(raw), nil)
		return t, p, err
	}},
	{"Reader", func(raw []byte) (Type, []byte, error) {
		return NewReader(bytes.NewReader(raw)).Next()
	}},
}

// eachDecoder runs fn as a subtest per decoder.
func eachDecoder(t *testing.T, fn func(t *testing.T, decode func(raw []byte) (Type, []byte, error))) {
	for _, d := range decoders {
		t.Run(d.name, func(t *testing.T) { fn(t, d.decode) })
	}
}

// TestTornFrames rejects truncation at every boundary of a valid frame.
func TestTornFrames(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, TypeQuery, AppendRequest(nil, Request{ID: 1, SQL: "SELECT 1"})); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	eachDecoder(t, func(t *testing.T, decode func([]byte) (Type, []byte, error)) {
		for cut := 1; cut < len(raw); cut++ {
			_, _, err := decode(raw[:cut])
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("cut at %d: err = %v, want *FrameError", cut, err)
			}
		}
		if _, _, err := decode(nil); err != io.EOF {
			t.Fatalf("empty stream: err = %v, want io.EOF", err)
		}
	})
}

// TestBadCRC rejects every single-bit corruption of a frame body.
func TestBadCRC(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, TypeExec, AppendRequest(nil, Request{ID: 2, SQL: "INSERT INTO t VALUES (1)"})); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Flip a bit in the type byte, mid-payload, and the final byte; the
	// CRC must catch each.
	eachDecoder(t, func(t *testing.T, decode func([]byte) (Type, []byte, error)) {
		for _, off := range []int{8, 12, len(raw) - 1} {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x40
			_, _, err := decode(mut)
			var fe *FrameError
			if !errors.As(err, &fe) || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("flip at %d: err = %v, want checksum FrameError", off, err)
			}
		}
	})
}

// TestOversizedFrame rejects declared lengths beyond MaxFrameSize without
// allocating them.
func TestOversizedFrame(t *testing.T) {
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], MaxFrameSize+1)
	eachDecoder(t, func(t *testing.T, decode func([]byte) (Type, []byte, error)) {
		_, _, err := decode(hdr)
		var fe *FrameError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), "declares") {
			t.Fatalf("err = %v, want oversized FrameError", err)
		}
	})
	// The writer refuses to produce one, too, and leaves what the buffer
	// already held alone.
	if err := WriteFrame(io.Discard, TypeQuery, make([]byte, MaxFrameSize)); err == nil {
		t.Fatal("WriteFrame accepted an oversized payload")
	}
	kept, err := AppendFrame([]byte("kept"), TypeQuery, make([]byte, MaxFrameSize))
	if err == nil || string(kept) != "kept" {
		t.Fatalf("AppendFrame of an oversized payload = %d bytes, %v; want the 4 it was given and an error", len(kept), err)
	}
}

// TestEmptyAndZeroFrames rejects a zero-length frame (no type byte).
func TestEmptyAndZeroFrames(t *testing.T) {
	hdr := make([]byte, 8) // len = 0
	eachDecoder(t, func(t *testing.T, decode func([]byte) (Type, []byte, error)) {
		_, _, err := decode(hdr)
		var fe *FrameError
		if !errors.As(err, &fe) {
			t.Fatalf("err = %v, want *FrameError", err)
		}
	})
}

// TestDecodeTruncatedPayloads exercises each message decoder against short
// inputs.
func TestDecodeTruncatedPayloads(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Error("DecodeRequest accepted a short payload")
	}
	if _, err := DecodeID([]byte{1}); err == nil {
		t.Error("DecodeID accepted a short payload")
	}
	if _, err := DecodeHello([]byte{1}); err == nil {
		t.Error("DecodeHello accepted a short payload")
	}
	if _, err := DecodeRowDesc([]byte{1, 0, 0, 0, 5}); err == nil {
		t.Error("DecodeRowDesc accepted a truncated string")
	}
	if _, _, err := DecodeRowBatch([]byte{1, 0, 0}); err == nil {
		t.Error("DecodeRowBatch accepted a short payload")
	}
	if _, _, err := DecodeRowBatch([]byte{1, 0, 0, 0, 2, 1, byte(types.KindInt)}); err == nil {
		t.Error("DecodeRowBatch accepted a truncated tuple")
	}
	if _, _, err := DecodeRowBatch(append(AppendRowBatch(nil, 1, []types.Row{{types.NewInt(1)}}), 0xff)); err == nil {
		t.Error("DecodeRowBatch accepted trailing bytes")
	}
	// A count the payload is too short to back is refused before it sizes
	// an allocation: the only thing allocated is the error.
	hugeCount := []byte{1, 0, 0, 0, 0, 0x80, 0x80, 0x80, 0x08} // id, "", 2^24 columns
	if n := testing.AllocsPerRun(10, func() { _, _ = DecodeRowDesc(hugeCount) }); n > 1 {
		t.Errorf("DecodeRowDesc allocated %.0f times for a count of 2^24 in a 9-byte payload", n)
	}
	hugeBatch := []byte{1, 0, 0, 0, 0x80, 0x80, 0x80, 0x08} // id, 2^24 tuples
	if n := testing.AllocsPerRun(10, func() { _, _, _ = DecodeRowBatch(hugeBatch) }); n > 1 {
		t.Errorf("DecodeRowBatch allocated %.0f times for a count of 2^24 in an 8-byte payload", n)
	}
	if _, err := DecodeComplete([]byte{1, 0, 0, 0}); err == nil {
		t.Error("DecodeComplete accepted a missing count")
	}
	if _, err := DecodeError([]byte{1, 0, 0, 0, 9}); err == nil {
		t.Error("DecodeError accepted a truncated code")
	}
}

// scripted is a stream that delivers its steps one Read at a time: a
// []byte step is data (handed out across as many Reads as the caller's
// buffer needs), an error step is returned once.
type scripted struct{ steps []any }

func (s *scripted) Read(p []byte) (int, error) {
	if len(s.steps) == 0 {
		return 0, io.EOF
	}
	switch step := s.steps[0].(type) {
	case []byte:
		n := copy(p, step)
		if n == len(step) {
			s.steps = s.steps[1:]
		} else {
			s.steps[0] = step[n:]
		}
		return n, nil
	default:
		s.steps = s.steps[1:]
		return 0, step.(error)
	}
}

// TestReaderSurvivesDeadlineMidFrame is why the Reader peeks: a read
// deadline that fires when only a header, or half a body, has arrived
// tears nothing. The error comes back as it is, what arrived stays
// buffered, and once the rest is in the next call returns the frame.
func TestReaderSurvivesDeadlineMidFrame(t *testing.T) {
	first := AppendRequest(nil, Request{ID: 1, SQL: "SELECT iid FROM ratings WHERE uid = 7"})
	second := AppendID(nil, 2)
	raw, err := AppendFrame(nil, TypeQuery, first)
	if err != nil {
		t.Fatal(err)
	}
	one := len(raw)
	if raw, err = AppendFrame(raw, TypePing, second); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(raw); cut++ {
		fr := NewReader(&scripted{steps: []any{raw[:cut:cut], os.ErrDeadlineExceeded, raw[cut:]}})
		var got [][]byte
		timeouts := 0
		for len(got) < 2 {
			ft, p, err := fr.Next()
			if err != nil {
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("cut at %d: err = %v, want the deadline error itself", cut, err)
				}
				// Whole frames that arrived before the deadline have been
				// handed out; what is buffered is the partial one.
				if want := cut - len(got)*one; fr.Buffered() != want {
					t.Fatalf("cut at %d: %d bytes buffered after the deadline, want %d", cut, fr.Buffered(), want)
				}
				timeouts++
				continue
			}
			if want := []Type{TypeQuery, TypePing}[len(got)]; ft != want {
				t.Fatalf("cut at %d: frame %d has type %q, want %q", cut, len(got), byte(ft), byte(want))
			}
			got = append(got, append([]byte(nil), p...))
		}
		if timeouts != 1 || !bytes.Equal(got[0], first) || !bytes.Equal(got[1], second) {
			t.Fatalf("cut at %d: %d deadline errors, payloads %q and %q", cut, timeouts, got[0], got[1])
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("cut at %d: after the last frame: %v, want io.EOF", cut, err)
		}
	}
}

// TestReaderFrameSizes sends frames around and far past the Reader's
// initial buffer, back to back and one byte at a time: the buffer grows
// and compacts without losing or reordering a byte.
func TestReaderFrameSizes(t *testing.T) {
	sizes := []int{0, 1, readerSize - frameHeaderSize - 2, readerSize - frameHeaderSize - 1,
		readerSize, readerSize + 1, 3 * readerSize, 100, 1 << 20, 5}
	var raw []byte
	var err error
	for i, n := range sizes {
		if raw, err = AppendFrame(raw, TypeRowBatch, bytes.Repeat([]byte{byte('a' + i)}, n)); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range map[string]io.Reader{
		"whole":   bytes.NewReader(raw),
		"dribble": iotest.OneByteReader(bytes.NewReader(raw)),
	} {
		fr := NewReader(src)
		for i, n := range sizes {
			ft, p, err := fr.Next()
			if err != nil || ft != TypeRowBatch || len(p) != n || bytes.Count(p, []byte{byte('a' + i)}) != n {
				t.Fatalf("%s: frame %d: type %q, %d bytes, %v; want %d bytes of %q", name, i, byte(ft), len(p), err, n, 'a'+i)
			}
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
	}
}

// forever serves the same bytes over and over.
type forever struct {
	data []byte
	off  int
}

func (f *forever) Read(p []byte) (int, error) {
	n := copy(p, f.data[f.off:])
	f.off = (f.off + n) % len(f.data)
	return n, nil
}

// TestFramesAllocateNothing pins the serving hop's steady state: taking
// a frame off a Reader and encoding one into a buffer that is kept cost
// no allocation.
func TestFramesAllocateNothing(t *testing.T) {
	req := Request{ID: 7, TimeoutMillis: 250, SQL: "SELECT iid FROM ratings WHERE uid = 7"}
	raw, err := AppendFrame(nil, TypeQuery, AppendRequest(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	fr := NewReader(&forever{data: raw})
	if n := testing.AllocsPerRun(1000, func() {
		if ft, p, err := fr.Next(); err != nil || ft != TypeQuery || len(p) != len(raw)-frameHeaderSize-1 {
			t.Fatalf("frame type %q, %d bytes, %v", byte(ft), len(p), err)
		}
	}); n != 0 {
		t.Errorf("reading a frame allocates %v times, want 0", n)
	}

	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		b, err := EndFrame(AppendRequest(BeginFrame(buf[:0], TypeQuery), req), 0)
		if err != nil || !bytes.Equal(b, raw) {
			t.Fatalf("encoded %x (%v), want %x", b, err, raw)
		}
	}); n != 0 {
		t.Errorf("writing a frame allocates %v times, want 0", n)
	}
}
