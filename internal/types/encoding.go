package types

import (
	"encoding/binary"
	"fmt"
	"math"

	"recdb/internal/geo"
)

// The binary tuple encoding used by heap pages:
//
//	row    := count:uvarint value*
//	value  := kind:byte payload
//	int    := zigzag varint
//	float  := 8 bytes big-endian IEEE 754 bits
//	text   := len:uvarint bytes
//	bool   := 1 byte
//	geom   := len:uvarint WKT bytes
//
// The format is self-describing so a heap tuple can be decoded without its
// schema (the schema is still used for validation at the access layer).

// EncodeRow appends the binary encoding of row to dst and returns it.
func EncodeRow(dst []byte, row Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt:
			dst = binary.AppendVarint(dst, v.i)
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
		case KindText:
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case KindBool:
			b := byte(0)
			if v.i != 0 {
				b = 1
			}
			dst = append(dst, b)
		case KindGeometry:
			w := ""
			if v.g != nil {
				w = v.g.WKT()
			}
			dst = binary.AppendUvarint(dst, uint64(len(w)))
			dst = append(dst, w...)
		}
	}
	return dst
}

// DecodeRow decodes one row from buf. It returns the row and the number of
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	n, off, err := rowHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	row := make(Row, n)
	if off, err = decodeValues(buf, off, row, nil); err != nil {
		return nil, 0, err
	}
	return row, off, nil
}

// RowSize checks the row encoded at the front of buf exactly as DecodeRow
// does — the same bytes pass, the same error for the rest — without
// building it, and returns its length. It allocates only to parse a
// GEOMETRY value's text.
func RowSize(buf []byte) (int, error) {
	n, off, err := rowHeader(buf)
	if err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		if _, next, ok := numericValue(buf, off); ok {
			off = next
			continue
		}
		if _, off, err = decodeValue(buf, off, i, false, nil); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// DecodeColumns decodes the row encoded at the front of buf into dst,
// which must have exactly one slot per value the row holds, and returns
// the row's length. The values need marks (every value, when need is nil)
// are built into their slots; the others are checked as RowSize checks
// them and their slots left NULL, so a reader that uses two columns of a
// wide row builds two values.
func DecodeColumns(buf []byte, dst Row, need []bool) (int, error) {
	n, off, err := rowHeader(buf)
	if err != nil {
		return 0, err
	}
	if n != len(dst) {
		return 0, fmt.Errorf("types: row holds %d values, %d expected", n, len(dst))
	}
	return decodeValues(buf, off, dst, need)
}

// decodeValues decodes the len(dst) values at buf[off:] into dst, building
// those need marks (all, when need is nil), and returns the offset past
// them.
func decodeValues(buf []byte, off int, dst Row, need []bool) (int, error) {
	var err error
	for i := range dst {
		build := need == nil || need[i]
		if v, next, ok := numericValue(buf, off); ok {
			dst[i], off = Value{}, next
			if build {
				dst[i] = v
			}
			continue
		}
		if dst[i], off, err = decodeValue(buf, off, i, build, nil); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// DecodeRows decodes n rows encoded back to back in buf, which must hold
// nothing else. Every row is a window of one slab of values, clipped to
// its length (len == cap), so a caller's append copies rather than
// overwriting the next row; and every TEXT value is a substring of one
// string made the first time a TEXT value is met. Rows of one width
// therefore take a constant number of allocations, whatever n is —
// GEOMETRY values still parse one by one.
func DecodeRows(buf []byte, n int) ([]Row, error) {
	rows := make([]Row, n)
	var slab []Value
	text := &textSource{buf: buf}
	off := 0
	for r := range rows {
		width, sz, err := rowHeader(buf[off:])
		if err != nil {
			return nil, err
		}
		off += sz
		if len(slab)+width > cap(slab) {
			slab = make([]Value, 0, width*(n-r))
		}
		start := len(slab)
		for i := 0; i < width; i++ {
			v, next, ok := numericValue(buf, off)
			if !ok {
				if v, next, err = decodeValue(buf, off, i, true, text); err != nil {
					return nil, err
				}
			}
			slab, off = append(slab, v), next
		}
		rows[r] = slab[start:len(slab):len(slab)]
	}
	if off != len(buf) {
		return nil, fmt.Errorf("types: %d bytes after %d rows", len(buf)-off, n)
	}
	return rows, nil
}

// textSource hands out the TEXT values of buf as substrings of one copy
// of it, made when the first is asked for.
type textSource struct {
	buf []byte
	all string
}

func (t *textSource) cut(lo, hi int) string {
	if t.all == "" {
		t.all = string(t.buf)
	}
	return t.all[lo:hi]
}

// numericValue decodes a well-formed BIGINT or DOUBLE at buf[off:] — the
// kinds of a ratings row — and the offset past it, for the row walkers'
// loops to take before they call decodeValue, which decodes every kind
// and reports every error; ok is false for anything else.
func numericValue(buf []byte, off int) (v Value, next int, ok bool) {
	if off >= len(buf) {
		return Value{}, 0, false
	}
	switch Kind(buf[off]) {
	case KindInt:
		if x, sz := binary.Varint(buf[off+1:]); sz > 0 {
			return Value{kind: KindInt, i: x}, off + 1 + sz, true
		}
	case KindFloat:
		if off+9 <= len(buf) {
			return Value{kind: KindFloat, f: math.Float64frombits(binary.BigEndian.Uint64(buf[off+1:]))}, off + 9, true
		}
	}
	return Value{}, 0, false
}

// rowHeader reads a row's value count and returns it with the offset of
// its first value.
func rowHeader(buf []byte) (int, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("types: truncated row header")
	}
	// Every value takes at least its kind byte, so a count past the bytes
	// that follow is refused before it sizes the row.
	if n > uint64(len(buf)-sz) {
		return 0, 0, fmt.Errorf("types: row header declares %d values, %d bytes follow", n, len(buf)-sz)
	}
	return int(n), sz, nil
}

// decodeValue checks value i of a row, encoded at buf[off:], and returns
// it with the offset past it. build false checks it without making it:
// the zero Value comes back, and only a GEOMETRY value's text is parsed.
// A TEXT value is copied out of buf, or cut from text when text is not
// nil (DecodeRows, which passes the whole buffer and absolute offsets).
func decodeValue(buf []byte, off, i int, build bool, text *textSource) (Value, int, error) {
	if off >= len(buf) {
		return Value{}, 0, fmt.Errorf("types: truncated value %d", i)
	}
	kind := Kind(buf[off])
	off++
	var v Value
	switch kind {
	case KindNull:
	case KindInt:
		x, sz := binary.Varint(buf[off:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("types: truncated int value %d", i)
		}
		off += sz
		v = NewInt(x)
	case KindFloat:
		if off+8 > len(buf) {
			return Value{}, 0, fmt.Errorf("types: truncated float value %d", i)
		}
		v = NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf[off:])))
		off += 8
	case KindText, KindGeometry:
		ln, sz := binary.Uvarint(buf[off:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("types: truncated string header %d", i)
		}
		off += sz
		if ln > uint64(len(buf)-off) {
			return Value{}, 0, fmt.Errorf("types: truncated string value %d", i)
		}
		b := buf[off : off+int(ln)]
		switch {
		case kind == KindText && !build:
		case kind == KindText && text != nil:
			v = NewText(text.cut(off, off+int(ln)))
		case kind == KindText:
			v = NewText(string(b))
		case len(b) == 0:
			v = Value{kind: KindGeometry}
		default:
			g, err := geo.Parse(string(b))
			if err != nil {
				return Value{}, 0, fmt.Errorf("types: bad geometry value %d: %w", i, err)
			}
			v = NewGeometry(g)
		}
		off += int(ln)
	case KindBool:
		if off >= len(buf) {
			return Value{}, 0, fmt.Errorf("types: truncated bool value %d", i)
		}
		v = NewBool(buf[off] != 0)
		off++
	default:
		return Value{}, 0, fmt.Errorf("types: unknown value kind %d", kind)
	}
	if !build {
		v = Value{}
	}
	return v, off, nil
}
