// Package wire defines the recdb-server client/server protocol: a
// length-prefixed, CRC-framed binary format over a byte stream, sharing
// the framing discipline of the write-ahead log (internal/wal) so a
// corrupt or truncated frame is detected before any payload is trusted.
//
// A connection opens with the client sending the 6-byte magic "RDBP1\n";
// the server answers with a Hello frame (or an Error frame when it
// refuses the connection, e.g. at capacity). After the handshake the
// client sends request frames and the server answers each with a
// response-frame sequence:
//
//	frame := len uint32 LE    length of type + payload
//	         crc uint32 LE    CRC32-C over type + payload
//	         type byte        frame type
//	         payload []byte
//
// Request frames: Query ('Q'), Exec ('E'), Ping ('P'), Cancel ('C').
// Response frames: Hello ('H'), RowDescription ('D'), DataRow ('R'),
// CommandComplete ('Z'), Pong ('p'), Error ('e').
//
// Every request carries a client-assigned id; every response frame echoes
// the id of the request it answers, so a client may pipeline requests. A
// Query answer is RowDescription, zero or more DataRows, then
// CommandComplete; an Exec answer is CommandComplete alone; Error is a
// terminal answer to any request. Cancel has no answer of its own — it
// asks the server to interrupt the identified in-flight request, whose own
// answer then arrives as an Error with code "canceled" (or its normal
// result, if it completed first).
//
// DataRow payloads reuse the engine's self-describing tuple encoding
// (types.EncodeRow), so the client decodes rows without a schema.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"recdb/internal/types"
)

// Magic is the 6-byte preamble a client sends after connecting; the
// trailing 1 is the protocol version.
const Magic = "RDBP1\n"

// MaxFrameSize bounds a declared frame length so a corrupt or hostile
// header cannot drive a huge allocation (the same bound the WAL applies
// to its records).
const MaxFrameSize = 16 << 20

// PipelineDepth bounds how many requests one connection may have
// admitted but not yet executed. The server answers a request past it
// "busy" instead of growing an unbounded queue, and takes a request out
// of the count before writing the first byte of its answer — so a client
// that keeps exactly PipelineDepth requests awaiting answers, refilling
// the instant one arrives, never draws that "busy".
const PipelineDepth = 16

// frameHeaderSize is len + crc.
const frameHeaderSize = 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type identifies a frame.
type Type byte

// Request frame types.
const (
	TypeQuery  Type = 'Q' // SELECT/EXPLAIN returning rows
	TypeExec   Type = 'E' // statement or script returning an affected count
	TypePing   Type = 'P' // liveness probe
	TypeCancel Type = 'C' // interrupt an in-flight request by id
)

// Response frame types.
const (
	TypeHello    Type = 'H' // handshake answer: session id + server version
	TypeRowDesc  Type = 'D' // result column names + planner strategy
	TypeDataRow  Type = 'R' // one result tuple
	TypeRowBatch Type = 'r' // several result tuples in one frame
	TypeComplete Type = 'Z' // terminal: affected/returned row count
	TypePong     Type = 'p' // answer to Ping
	TypeError    Type = 'e' // terminal: typed error
)

// Error codes carried by Error frames.
const (
	CodeBusy     = "busy"     // server at its connection limit
	CodeShutdown = "shutdown" // server draining; request not executed
	CodeTimeout  = "timeout"  // per-query timeout elapsed
	CodeCanceled = "canceled" // interrupted by a Cancel frame or client disconnect
	CodeQuery    = "query"    // SQL parse/plan/execution error
	CodeProtocol = "protocol" // malformed frame or handshake
	CodeInternal = "internal" // server-side panic or invariant failure

	// CodeShardDown is answered by the sharding router (internal/shard)
	// when the shard owning a statement's user key — or a shard a
	// fan-out needs — stays unreachable past the router's bounded
	// retries. Single-shard statements to healthy shards keep serving.
	CodeShardDown = "shard_down"
)

// FrameError describes a frame that failed validation (bad CRC, oversized
// declared length, or a truncated payload mid-stream).
type FrameError struct {
	Reason string
}

// Error implements error.
func (e *FrameError) Error() string { return "wire: " + e.Reason }

// WriteFrame writes one frame. The payload is borrowed, not retained.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return &FrameError{Reason: fmt.Sprintf("frame of %d bytes exceeds the %d-byte bound", len(payload)+1, MaxFrameSize)}
	}
	buf := make([]byte, frameHeaderSize+1+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(1+len(payload)))
	buf[8] = byte(t)
	copy(buf[9:], payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[8:], castagnoli))
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, reusing buf when it is large enough, and
// returns the frame type and payload (aliasing the returned buffer, valid
// until the next ReadFrame with the same buf). io.EOF is returned
// unwrapped when the stream ends cleanly between frames; a frame that
// fails validation returns a *FrameError.
func ReadFrame(r io.Reader, buf []byte) (Type, []byte, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, buf, &FrameError{Reason: "truncated frame header"}
		}
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 {
		return 0, nil, buf, &FrameError{Reason: "empty frame"}
	}
	if n > MaxFrameSize {
		return 0, nil, buf, &FrameError{Reason: fmt.Sprintf("frame declares %d bytes (max %d)", n, MaxFrameSize)}
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, &FrameError{Reason: "truncated frame payload"}
	}
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return 0, nil, buf, &FrameError{Reason: fmt.Sprintf("frame checksum mismatch (%08x != %08x)", got, wantCRC)}
	}
	return Type(body[0]), body[1:], buf, nil
}

// ---- Payload encodings ----
//
// Integers are fixed-width little-endian for ids and varint/uvarint for
// counts; strings are uvarint length + bytes.

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(p []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || uint64(len(p)-sz) < n {
		return "", nil, &FrameError{Reason: "truncated string"}
	}
	return string(p[sz : sz+int(n)]), p[sz+int(n):], nil
}

// Request is a decoded Query or Exec frame.
type Request struct {
	// ID is the client-assigned request id echoed by every response frame.
	ID uint32
	// TimeoutMillis bounds the query's execution on the server (0 = the
	// server's default policy).
	TimeoutMillis uint32
	// SQL is the statement (Query) or statement/script (Exec) text.
	SQL string
}

// AppendRequest encodes a Query/Exec payload.
func AppendRequest(dst []byte, r Request) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, r.ID)
	dst = binary.LittleEndian.AppendUint32(dst, r.TimeoutMillis)
	return append(dst, r.SQL...)
}

// DecodeRequest decodes a Query/Exec payload.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) < 8 {
		return Request{}, &FrameError{Reason: "truncated request"}
	}
	return Request{
		ID:            binary.LittleEndian.Uint32(p[0:4]),
		TimeoutMillis: binary.LittleEndian.Uint32(p[4:8]),
		SQL:           string(p[8:]),
	}, nil
}

// AppendID encodes a Ping, Pong, or Cancel payload (the request id alone).
func AppendID(dst []byte, id uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, id)
}

// DecodeID decodes a Ping, Pong, or Cancel payload.
func DecodeID(p []byte) (uint32, error) {
	if len(p) < 4 {
		return 0, &FrameError{Reason: "truncated id"}
	}
	return binary.LittleEndian.Uint32(p[0:4]), nil
}

// Hello is the server's handshake answer.
type Hello struct {
	SessionID uint64
	Server    string
}

// AppendHello encodes a Hello payload.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.SessionID)
	return append(dst, h.Server...)
}

// DecodeHello decodes a Hello payload.
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < 8 {
		return Hello{}, &FrameError{Reason: "truncated hello"}
	}
	return Hello{SessionID: binary.LittleEndian.Uint64(p[0:8]), Server: string(p[8:])}, nil
}

// RowDesc announces a Query result: its column names and the
// recommendation strategy the planner chose ("" for plain queries).
type RowDesc struct {
	ID       uint32
	Strategy string
	Columns  []string
}

// AppendRowDesc encodes a RowDescription payload.
func AppendRowDesc(dst []byte, d RowDesc) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, d.ID)
	dst = appendString(dst, d.Strategy)
	dst = binary.AppendUvarint(dst, uint64(len(d.Columns)))
	for _, c := range d.Columns {
		dst = appendString(dst, c)
	}
	return dst
}

// DecodeRowDesc decodes a RowDescription payload.
func DecodeRowDesc(p []byte) (RowDesc, error) {
	if len(p) < 4 {
		return RowDesc{}, &FrameError{Reason: "truncated row description"}
	}
	d := RowDesc{ID: binary.LittleEndian.Uint32(p[0:4])}
	rest := p[4:]
	var err error
	if d.Strategy, rest, err = readString(rest); err != nil {
		return RowDesc{}, err
	}
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || n > MaxFrameSize {
		return RowDesc{}, &FrameError{Reason: "truncated column count"}
	}
	rest = rest[sz:]
	d.Columns = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var c string
		if c, rest, err = readString(rest); err != nil {
			return RowDesc{}, err
		}
		d.Columns = append(d.Columns, c)
	}
	return d, nil
}

// AppendDataRow encodes a DataRow payload: the request id followed by the
// engine's binary tuple encoding.
func AppendDataRow(dst []byte, id uint32, row types.Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	return types.EncodeRow(dst, row)
}

// DecodeDataRow decodes a DataRow payload.
func DecodeDataRow(p []byte) (uint32, types.Row, error) {
	if len(p) < 4 {
		return 0, nil, &FrameError{Reason: "truncated data row"}
	}
	id := binary.LittleEndian.Uint32(p[0:4])
	row, _, err := types.DecodeRow(p[4:])
	if err != nil {
		return 0, nil, fmt.Errorf("wire: %w", err)
	}
	return id, row, nil
}

// RowBatch carries several result tuples in one frame, amortizing the
// 9-byte frame header and per-frame CRC over a batch. High-fanout scans
// produce thousands of small tuples; one syscall-sized frame per tuple
// dominates the wire cost, so the server coalesces them (singles still
// travel as DataRow). The payload is the request id, a uvarint tuple
// count, then the tuples back to back in the engine's self-describing
// encoding.

// AppendRowBatch encodes a RowBatch payload.
func AppendRowBatch(dst []byte, id uint32, rows []types.Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = types.EncodeRow(dst, r)
	}
	return dst
}

// DecodeRowBatch decodes a RowBatch payload.
func DecodeRowBatch(p []byte) (uint32, []types.Row, error) {
	if len(p) < 4 {
		return 0, nil, &FrameError{Reason: "truncated row batch"}
	}
	id := binary.LittleEndian.Uint32(p[0:4])
	n, sz := binary.Uvarint(p[4:])
	if sz <= 0 || n > MaxFrameSize {
		return 0, nil, &FrameError{Reason: "truncated batch count"}
	}
	rest := p[4+sz:]
	rows := make([]types.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		row, used, err := types.DecodeRow(rest)
		if err != nil {
			return 0, nil, fmt.Errorf("wire: %w", err)
		}
		rows = append(rows, row)
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return 0, nil, &FrameError{Reason: "trailing bytes after row batch"}
	}
	return id, rows, nil
}

// Complete is the terminal success frame: the affected row count for Exec,
// the returned row count for Query.
type Complete struct {
	ID   uint32
	Rows int64
}

// AppendComplete encodes a CommandComplete payload.
func AppendComplete(dst []byte, c Complete) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, c.ID)
	return binary.AppendVarint(dst, c.Rows)
}

// DecodeComplete decodes a CommandComplete payload.
func DecodeComplete(p []byte) (Complete, error) {
	if len(p) < 4 {
		return Complete{}, &FrameError{Reason: "truncated command complete"}
	}
	rows, sz := binary.Varint(p[4:])
	if sz <= 0 {
		return Complete{}, &FrameError{Reason: "truncated row count"}
	}
	return Complete{ID: binary.LittleEndian.Uint32(p[0:4]), Rows: rows}, nil
}

// ErrorMsg is the terminal failure frame.
type ErrorMsg struct {
	ID      uint32
	Code    string // one of the Code* constants
	Message string
}

// AppendError encodes an Error payload.
func AppendError(dst []byte, e ErrorMsg) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, e.ID)
	dst = appendString(dst, e.Code)
	return appendString(dst, e.Message)
}

// DecodeError decodes an Error payload.
func DecodeError(p []byte) (ErrorMsg, error) {
	if len(p) < 4 {
		return ErrorMsg{}, &FrameError{Reason: "truncated error"}
	}
	e := ErrorMsg{ID: binary.LittleEndian.Uint32(p[0:4])}
	rest := p[4:]
	var err error
	if e.Code, rest, err = readString(rest); err != nil {
		return ErrorMsg{}, err
	}
	if e.Message, _, err = readString(rest); err != nil {
		return ErrorMsg{}, err
	}
	return e, nil
}
