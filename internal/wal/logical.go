package wal

import (
	"encoding/binary"
	"fmt"
)

// This file defines the logical (tuple-level) record payloads segments
// carry: each framed payload (wal.go) is one Record, encoded by
// EncodeRecord.
//
// Record kinds:
//
//	'B' TxnBegin    opens transaction Txn
//	'I' Insert      Row was inserted into Table
//	'D' Delete      Old was deleted from Table
//	'U' Update      Old became Row in Table
//	'C' TxnCommit   transaction Txn is committed
//	'A' TxnAbort    transaction Txn rolled back (its records are void)
//	'S' Stmt        a DDL statement, recorded as source text (Text)
//
// Recovery applies a bare tuple record (Txn == 0) immediately; records
// with Txn != 0 are buffered and applied only when the matching
// TxnCommit arrives. A buffered transaction whose commit record never
// made it to disk — a crash mid-commit — is discarded wholesale: that is
// the all-or-nothing guarantee the atomicity sweep asserts.
const (
	RecTxnBegin  byte = 'B'
	RecInsert    byte = 'I'
	RecDelete    byte = 'D'
	RecUpdate    byte = 'U'
	RecTxnCommit byte = 'C'
	RecTxnAbort  byte = 'A'
	RecStmt      byte = 'S'
)

// Record is one logical WAL entry. Row and Old hold rows pre-encoded
// with types.EncodeRow by the caller, so the wal package stays free of
// value-layer dependencies. Rows are matched by content on replay (RIDs
// are not stable across a snapshot reload, which compacts slots).
type Record struct {
	Kind  byte
	Txn   uint64 // transaction id; 0 = autocommit (applied standalone)
	Table string // target table ('I'/'D'/'U')
	Row   []byte // inserted / post-update row ('I'/'U')
	Old   []byte // deleted / pre-update row ('D'/'U')
	Text  string // statement source text ('S')
}

// validKind reports whether k names a defined record kind.
func validKind(k byte) bool {
	switch k {
	case RecTxnBegin, RecInsert, RecDelete, RecUpdate, RecTxnCommit, RecTxnAbort, RecStmt:
		return true
	}
	return false
}

// EncodeRecord appends the record's payload encoding to buf and returns
// the extended slice. Layout: kind byte, then uvarint txn id, then the
// four variable fields (table, row, old, text), each length-prefixed
// with a uvarint. Unused fields encode as a zero length.
func EncodeRecord(buf []byte, r Record) []byte {
	buf = append(buf, r.Kind)
	buf = binary.AppendUvarint(buf, r.Txn)
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Row)))
	buf = append(buf, r.Row...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Old)))
	buf = append(buf, r.Old...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Text)))
	buf = append(buf, r.Text...)
	return buf
}

// DecodeRecord parses one logical record payload (the inverse of
// EncodeRecord). The returned record's byte slices alias payload.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	if len(payload) == 0 {
		return r, fmt.Errorf("wal: empty logical record")
	}
	r.Kind = payload[0]
	if !validKind(r.Kind) {
		return r, fmt.Errorf("wal: unknown logical record kind %q", r.Kind)
	}
	rest := payload[1:]
	txn, n := binary.Uvarint(rest)
	if n <= 0 {
		return r, fmt.Errorf("wal: truncated logical record txn id")
	}
	r.Txn = txn
	rest = rest[n:]
	field := func(name string) ([]byte, error) {
		ln, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < ln {
			return nil, fmt.Errorf("wal: truncated logical record %s", name)
		}
		b := rest[n : n+int(ln)]
		rest = rest[n+int(ln):]
		return b, nil
	}
	table, err := field("table")
	if err != nil {
		return r, err
	}
	if r.Row, err = field("row"); err != nil {
		return r, err
	}
	if r.Old, err = field("old"); err != nil {
		return r, err
	}
	text, err := field("text")
	if err != nil {
		return r, err
	}
	r.Table, r.Text = string(table), string(text)
	if len(rest) != 0 {
		return r, fmt.Errorf("wal: %d trailing bytes after logical record", len(rest))
	}
	return r, nil
}
