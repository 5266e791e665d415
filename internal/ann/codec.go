package ann

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Serialized layout (all integers varint unless noted):
//
//	magic "ANNIVF1\x00"                      8 bytes
//	dim, K, nItems, defaultNProbe            uvarint
//	seed                                     varint (signed)
//	centroids                                K×dim float64, LE bits
//	item ids                                 first absolute (varint), then
//	                                         ascending deltas (uvarint)
//	item vectors                             nItems×dim float64, LE bits
//	assignments                              nItems uvarint centroid indices
//	crc32c of everything above               4 bytes LE
//
// The trailing CRC makes torn or bit-flipped persisted indexes detectable:
// Decode fails closed and the planner falls back to the exact scan.

var annMagic = [8]byte{'A', 'N', 'N', 'I', 'V', 'F', '1', 0}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the index with a trailing CRC32-C.
func (ix *Index) Encode() []byte {
	var buf []byte
	buf = append(buf, annMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(ix.dim))
	buf = binary.AppendUvarint(buf, uint64(len(ix.centroids)))
	buf = binary.AppendUvarint(buf, uint64(len(ix.items)))
	buf = binary.AppendUvarint(buf, uint64(ix.defaultNProbe))
	buf = binary.AppendVarint(buf, ix.seed)
	for _, c := range ix.centroids {
		for _, f := range c {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	prev := int64(0)
	for p, id := range ix.items {
		if p == 0 {
			buf = binary.AppendVarint(buf, id)
		} else {
			buf = binary.AppendUvarint(buf, uint64(id-prev))
		}
		prev = id
	}
	for _, v := range ix.vecs {
		for _, f := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	for _, a := range ix.assign {
		buf = binary.AppendUvarint(buf, uint64(a))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ann: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ann: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) floats(n int) ([]float64, error) {
	if d.off+8*n > len(d.buf) {
		return nil, fmt.Errorf("ann: truncated vector block at offset %d", d.off)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
	return out, nil
}

// Decode deserializes an index, verifying the magic and trailing CRC and
// every structural invariant (ascending items, in-range assignments).
func Decode(data []byte) (*Index, error) {
	if len(data) < len(annMagic)+4 {
		return nil, fmt.Errorf("ann: index blob too short (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("ann: index checksum mismatch (got %08x want %08x)", got, want)
	}
	if string(body[:len(annMagic)]) != string(annMagic[:]) {
		return nil, fmt.Errorf("ann: bad index magic")
	}
	d := &decoder{buf: body, off: len(annMagic)}

	dim64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	k64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	n64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	nprobe64, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	seed, err := d.varint()
	if err != nil {
		return nil, err
	}
	const limit = 1 << 28 // sanity bound against corrupt headers
	if dim64 > limit || k64 > limit || n64 > limit || (dim64 == 0 && k64 > 0) {
		return nil, fmt.Errorf("ann: implausible index header (dim=%d k=%d n=%d)", dim64, k64, n64)
	}
	// Nothing is allocated for a count the bytes that follow cannot back:
	// a centroid is dim floats, an item at least a byte of id, dim floats
	// and a byte of assignment. (Under limit, no product overflows.)
	centroidBytes, itemBytes := k64*dim64*8, n64*(2+8*dim64)
	if rest := uint64(len(body) - d.off); centroidBytes > rest || itemBytes > rest-centroidBytes {
		return nil, fmt.Errorf("ann: index header (dim=%d k=%d n=%d) needs more than the %d bytes that follow", dim64, k64, n64, rest)
	}
	dim, k, n := int(dim64), int(k64), int(n64)

	ix := &Index{dim: dim, seed: seed, defaultNProbe: int(nprobe64)}
	ix.centroids = make([][]float64, k)
	for c := range ix.centroids {
		if ix.centroids[c], err = d.floats(dim); err != nil {
			return nil, err
		}
	}
	ix.items = make([]int64, n)
	prev := int64(0)
	for p := range ix.items {
		if p == 0 {
			if prev, err = d.varint(); err != nil {
				return nil, err
			}
		} else {
			delta, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if delta == 0 {
				return nil, fmt.Errorf("ann: non-ascending item ids")
			}
			prev += int64(delta)
		}
		ix.items[p] = prev
	}
	ix.vecs = make([][]float64, n)
	for p := range ix.vecs {
		if ix.vecs[p], err = d.floats(dim); err != nil {
			return nil, err
		}
	}
	ix.assign = make([]int32, n)
	for p := range ix.assign {
		a, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if int(a) >= k {
			return nil, fmt.Errorf("ann: assignment %d out of range (K=%d)", a, k)
		}
		ix.assign[p] = int32(a)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("ann: %d trailing bytes after index", len(body)-d.off)
	}
	ix.pos = make(map[int64]int32, n)
	for p, id := range ix.items {
		ix.pos[id] = int32(p)
	}
	ix.buildLists()
	return ix, nil
}
