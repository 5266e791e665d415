package ann

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"
)

// seal appends the CRC32-C trailer Decode checks first, so a body reaches
// the structure checks behind it.
func seal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// header is an index body that ends after its header fields: no centroid,
// item or assignment bytes follow.
func header(dim, k, n uint64) []byte {
	b := append([]byte(nil), annMagic[:]...)
	for _, v := range []uint64{dim, k, n, 0} {
		b = binary.AppendUvarint(b, v)
	}
	return binary.AppendVarint(b, 0)
}

// TestDecodeAllocationBounded: a sealed header whose counts no bytes back
// is refused before anything is allocated for them. A 20-byte blob saying
// 2^24 centroids of dimension 0 used to decode without error into 16 M
// empty centroids (768 MB); these counts are smaller so the old behaviour
// fails the test without exhausting memory.
func TestDecodeAllocationBounded(t *testing.T) {
	if got := len(seal(header(0, 1<<24, 0))); got != 20 {
		t.Fatalf("the reported blob is 20 bytes, this one %d", got)
	}
	for _, tc := range []struct {
		name      string
		dim, k, n uint64
	}{
		{"dimension 0", 0, 1 << 20, 0},
		{"centroids", 1, 1 << 20, 0},
		{"items", 1, 0, 1 << 20},
	} {
		blob := seal(header(tc.dim, tc.k, tc.n))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Decode(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: decoded %d centroids and %d items from %d bytes", tc.name, ix.NumCentroids(), ix.NumItems(), len(blob))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes", tc.name, len(blob), n)
		}
	}
}

// FuzzDecode hands Decode arbitrary index bodies, each sealed with a valid
// checksum so the bytes reach the structure checks. Decode must return an
// error or an index that is no bigger than its bytes, serves every item
// from exactly one posting list, and survives its own round trip. The
// seeds are a real index and the 20-byte blob of TestDecodeAllocationBounded.
func FuzzDecode(f *testing.F) {
	items, vecs := synthFactors(8, 2, 3) // small: the fuzzer minimizes what it finds
	blob := Build(items, vecs, Options{Seed: 3}).Encode()
	f.Add(blob[:len(blob)-4])
	f.Add(header(0, 1<<24, 0))
	empty := Build(nil, nil, Options{}).Encode()
	f.Add(empty[:len(empty)-4])

	f.Fuzz(func(t *testing.T, body []byte) {
		ix, err := Decode(seal(body))
		if err != nil {
			return
		}
		dim, k, n := ix.Dim(), ix.NumCentroids(), ix.NumItems()
		if k*dim*8+n*(2+8*dim) > len(body) {
			t.Fatalf("dim %d, %d centroids, %d items from a %d-byte body", dim, k, n, len(body))
		}
		// A nil query scores every centroid 0 (dim may be anything when
		// there are none).
		if got := ix.Candidates(ix.ProbeOrder(nil), k); len(got) != n {
			t.Fatalf("full probe finds %d of %d items", len(got), n)
		}
		enc := ix.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoded index does not decode after Encode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("decoded index does not survive its round trip")
		}
	})
}
