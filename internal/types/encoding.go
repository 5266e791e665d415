package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

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

// ErrRunRow is the error DecodeRunRow wraps for bytes that are not a
// (BIGINT, BIGINT, DOUBLE) row as EncodeRow writes one.
var ErrRunRow = errors.New("types: not a (BIGINT, BIGINT, DOUBLE) row")

// DecodeRunRow decodes the one row shape a run-keyed model table holds,
// (BIGINT key, BIGINT id, DOUBLE val), straight from tuple bytes: a clustered
// run read decodes every row of the run and must not build a Row or
// allocate for one. It checks in one pass what EncodeRow writes for that
// shape — a one-byte header of 3, the three kind bytes in order, varints
// that end inside buf, the float's eight bytes, and nothing after them.
// Anything else, including encodings EncodeRow never produces and rows
// DecodeRow would read as another shape, fails with an error wrapping
// ErrRunRow.
func DecodeRunRow(buf []byte) (key, id int64, val float64, err error) {
	// 14 bytes is the shortest such row: the header, two kind + one-byte
	// varint pairs, and a kind + eight-byte float.
	if len(buf) < 14 || buf[0] != 3 || Kind(buf[1]) != KindInt {
		return 0, 0, 0, runRowError(buf)
	}
	key, off := varintAt(buf, 2)
	if off < 0 || off >= len(buf) || Kind(buf[off]) != KindInt {
		return 0, 0, 0, runRowError(buf)
	}
	id, off = varintAt(buf, off+1)
	if off < 0 || off+9 != len(buf) || Kind(buf[off]) != KindFloat {
		return 0, 0, 0, runRowError(buf)
	}
	return key, id, math.Float64frombits(binary.BigEndian.Uint64(buf[off+1:])), nil
}

// varintAt decodes the zigzag varint at buf[off:], accepting exactly what
// binary.Varint accepts, and returns it with the offset just past it, or
// a negative offset when it runs off buf or overflows 64 bits.
func varintAt(buf []byte, off int) (int64, int) {
	var ux uint64
	for s := uint(0); off < len(buf); s += 7 {
		b := buf[off]
		off++
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1
			}
			ux |= uint64(b) << s
			return int64(ux>>1) ^ -int64(ux&1), off
		}
		if s == 63 {
			return 0, -1
		}
		ux |= uint64(b&0x7f) << s
	}
	return 0, -1
}

// runRowError says why DecodeRunRow refused buf, off its fast path.
func runRowError(buf []byte) error {
	row, n, err := DecodeRow(buf)
	switch {
	case err != nil:
		return fmt.Errorf("%w: %w", ErrRunRow, err)
	case len(row) != 3 || row[0].Kind() != KindInt || row[1].Kind() != KindInt || row[2].Kind() != KindFloat:
		kinds := make([]string, len(row))
		for i, v := range row {
			kinds[i] = v.Kind().String()
		}
		return fmt.Errorf("%w: a (%s) row", ErrRunRow, strings.Join(kinds, ", "))
	case n != len(buf):
		return fmt.Errorf("%w: %d bytes after the row", ErrRunRow, len(buf)-n)
	default:
		return fmt.Errorf("%w: an encoding EncodeRow does not write", ErrRunRow)
	}
}

// DecodeRow decodes one row from buf. It returns the row and the number of
// bytes consumed.
func DecodeRow(buf []byte) (Row, int, error) {
	var row Row
	n, err := walkRow(buf, &row)
	if err != nil {
		return nil, 0, err
	}
	return row, n, nil
}

// RowSize checks the row encoded at the front of buf exactly as DecodeRow
// does — the same bytes pass, the same error for the rest — without
// building it, and returns its length. It allocates only to parse a
// GEOMETRY value's text.
func RowSize(buf []byte) (int, error) { return walkRow(buf, nil) }

// walkRow validates the row at the front of buf and returns its length,
// appending its values to *row when row is not nil.
func walkRow(buf []byte, row *Row) (int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, fmt.Errorf("types: truncated row header")
	}
	off := sz
	// Every value takes at least its kind byte, so a count past the bytes
	// that follow is refused before it sizes the row.
	if n > uint64(len(buf)-off) {
		return 0, fmt.Errorf("types: row header declares %d values, %d bytes follow", n, len(buf)-off)
	}
	if row != nil {
		*row = make(Row, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(buf) {
			return 0, fmt.Errorf("types: truncated value %d", i)
		}
		kind := Kind(buf[off])
		off++
		var v Value
		switch kind {
		case KindNull:
		case KindInt:
			x, sz := binary.Varint(buf[off:])
			if sz <= 0 {
				return 0, fmt.Errorf("types: truncated int value %d", i)
			}
			off += sz
			v = NewInt(x)
		case KindFloat:
			if off+8 > len(buf) {
				return 0, fmt.Errorf("types: truncated float value %d", i)
			}
			bits := binary.BigEndian.Uint64(buf[off:])
			off += 8
			v = NewFloat(math.Float64frombits(bits))
		case KindText, KindGeometry:
			ln, sz := binary.Uvarint(buf[off:])
			if sz <= 0 {
				return 0, fmt.Errorf("types: truncated string header %d", i)
			}
			off += sz
			if ln > uint64(len(buf)-off) {
				return 0, fmt.Errorf("types: truncated string value %d", i)
			}
			b := buf[off : off+int(ln)]
			off += int(ln)
			switch {
			case kind == KindText:
				if row != nil {
					v = NewText(string(b))
				}
			case len(b) == 0:
				v = Value{kind: KindGeometry}
			default:
				g, err := geo.Parse(string(b))
				if err != nil {
					return 0, fmt.Errorf("types: bad geometry value %d: %w", i, err)
				}
				v = NewGeometry(g)
			}
		case KindBool:
			if off >= len(buf) {
				return 0, fmt.Errorf("types: truncated bool value %d", i)
			}
			v = NewBool(buf[off] != 0)
			off++
		default:
			return 0, fmt.Errorf("types: unknown value kind %d", kind)
		}
		if row != nil {
			*row = append(*row, v)
		}
	}
	return off, nil
}
