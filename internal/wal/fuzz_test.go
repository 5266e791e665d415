package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"recdb/internal/fault"
)

// sameRecord compares records by content: DecodeRecord returns empty
// non-nil slices where a hand-built Record has nil.
func sameRecord(a, b Record) bool {
	return a.Kind == b.Kind && a.Txn == b.Txn && a.Table == b.Table && a.Text == b.Text &&
		bytes.Equal(a.Row, b.Row) && bytes.Equal(a.Old, b.Old)
}

// FuzzDecodeRecord feeds DecodeRecord arbitrary payloads: it must answer
// with an error or with a record that survives an encode → decode round
// trip unchanged. Uvarints have non-canonical spellings, so the re-encoded
// bytes need not equal the input — record equality is the property.
func FuzzDecodeRecord(f *testing.F) {
	golden := []Record{
		{Kind: RecTxnBegin, Txn: 7},
		{Kind: RecInsert, Table: "ratings", Row: []byte{1, 2, 3}},
		{Kind: RecDelete, Txn: 1 << 40, Table: "kv", Old: []byte{9}},
		{Kind: RecUpdate, Txn: 3, Table: "kv", Old: []byte{1}, Row: []byte{2}},
		{Kind: RecTxnCommit, Txn: 7},
		{Kind: RecTxnAbort, Txn: 7},
		{Kind: RecStmt, Text: "CREATE TABLE kv (k INT PRIMARY KEY, v INT)"},
	}
	for _, r := range golden {
		enc := EncodeRecord(nil, r)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])                   // truncated field
		f.Add(append(enc[:len(enc):len(enc)], 0)) // trailing byte
	}
	f.Add([]byte{})
	f.Add([]byte{'X', 0, 0, 0, 0, 0})                                              // unknown kind
	f.Add([]byte{RecInsert, 0x80, 0x00, 0, 0, 0, 0})                               // non-canonical uvarint txn
	f.Add([]byte{RecInsert, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}) // field length near 2^63

	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		again, err := DecodeRecord(EncodeRecord(nil, r))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v (record %+v)", err, r)
		}
		if !sameRecord(r, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, r)
		}
	})
}

// FuzzReplay stores arbitrary bytes as a segment and replays it, once as
// the final segment (where a bad tail is a torn write: replay stops, no
// error) and once followed by an intact segment (where the same damage
// is corruption). Either way Replay returns nil or a *CorruptError, never
// panics, and never hands out a payload a declared length conjured:
// every payload is within maxRecordSize and within the bytes on disk.
func FuzzReplay(f *testing.F) {
	// Seeds: a real three-record segment, and the damage the unit tests
	// above inflict on one — torn in half, a flipped payload bit (bad
	// CRC), a foreign magic, a header declaring more than maxRecordSize.
	fs := fault.NewMemFS()
	l, err := Open(fs, "wal", 0, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []Record{
		{Kind: RecInsert, Table: "kv", Row: []byte{1, 10}},
		{Kind: RecTxnBegin, Txn: 2},
		{Kind: RecStmt, Text: "CREATE TABLE t (a INT)"},
	} {
		if _, err := l.Append(EncodeRecord(nil, r)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := fs.ReadFile("wal/" + segName(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	huge := append([]byte(nil), good[:magicLen+recordHeaderSize]...)
	binary.LittleEndian.PutUint32(huge[magicLen:], maxRecordSize+1)
	f.Add(huge)
	f.Add([]byte(segmentMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, seg []byte) {
		for _, final := range []bool{true, false} {
			fs := fault.NewMemFS()
			if err := fs.MkdirAll("wal"); err != nil {
				t.Fatal(err)
			}
			write := func(name string, data []byte) {
				file, err := fs.Create("wal/" + name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := file.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := file.Close(); err != nil {
					t.Fatal(err)
				}
			}
			write(segName(1), seg)
			if !final {
				write(segName(1<<62), []byte(segmentMagic))
			}
			var prev uint64
			last, err := Replay(fs, "wal", 0, func(seq uint64, payload []byte) error {
				if seq <= prev {
					t.Fatalf("final=%v: seq %d delivered after %d", final, seq, prev)
				}
				prev = seq
				if len(payload) > maxRecordSize || len(payload) > len(seg) {
					t.Fatalf("final=%v: %d-byte payload from a %d-byte segment", final, len(payload), len(seg))
				}
				return nil
			})
			var ce *CorruptError
			if err != nil && !errors.As(err, &ce) {
				t.Fatalf("final=%v: err = %v, want nil or *CorruptError", final, err)
			}
			if last != prev {
				t.Fatalf("final=%v: Replay returned seq %d, last delivered %d", final, last, prev)
			}
		}
	})
}
