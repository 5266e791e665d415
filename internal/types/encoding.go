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
