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
// Response frames: Hello ('H'), RowDescription ('D'), RowBatch ('r'),
// CommandComplete ('Z'), Pong ('p'), Error ('e').
//
// Every request carries a client-assigned id; every response frame echoes
// the id of the request it answers, so a client may pipeline requests. A
// Query answer is RowDescription, its tuples in RowBatch frames, then
// CommandComplete; an Exec
// answer is CommandComplete alone; Error is a terminal answer to any
// request. Cancel has no answer of its own — it asks the server to
// interrupt the identified in-flight request, whose own answer then
// arrives as an Error with code "canceled" (or its normal result, if it
// completed first).
//
// RowBatch payloads reuse the engine's self-describing tuple
// encoding (types.EncodeRow), so the client decodes rows without a
// schema.
//
// Both ends of a connection read through a Reader and build what they
// send with BeginFrame/EndFrame in a buffer they keep; ReadFrame and
// WriteFrame are the one-shot forms for tools and tests.
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
	TypeRowBatch Type = 'r' // result tuples, one or more per frame
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

// BeginFrame starts a frame of type t at the end of dst and returns the
// grown slice; the caller appends the payload in place and closes the
// frame with EndFrame, so an answer is encoded once, into the buffer it
// is sent from.
func BeginFrame(dst []byte, t Type) []byte {
	var hdr [frameHeaderSize]byte
	dst = append(dst, hdr[:]...)
	return append(dst, byte(t))
}

// EndFrame fills in the length and checksum of the frame BeginFrame
// started at offset start of dst. A frame past MaxFrameSize is cut back
// off dst and reported.
func EndFrame(dst []byte, start int) ([]byte, error) {
	body := dst[start+frameHeaderSize:]
	if len(body) > MaxFrameSize {
		return dst[:start], &FrameError{Reason: fmt.Sprintf("frame of %d bytes exceeds the %d-byte bound", len(body), MaxFrameSize)}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// AppendFrame appends one whole frame to dst. The payload is borrowed,
// not retained.
func AppendFrame(dst []byte, t Type, payload []byte) ([]byte, error) {
	start := len(dst)
	return EndFrame(append(BeginFrame(dst, t), payload...), start)
}

// WriteFrame writes one frame to w in a single Write.
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	frame, err := AppendFrame(make([]byte, 0, frameHeaderSize+1+len(payload)), t, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// parseHeader validates a frame header and returns the declared length
// of type + payload and their checksum.
func parseHeader(hdr []byte) (n int, crc uint32, err error) {
	declared := binary.LittleEndian.Uint32(hdr[0:4])
	if declared == 0 {
		return 0, 0, &FrameError{Reason: "empty frame"}
	}
	if declared > MaxFrameSize {
		return 0, 0, &FrameError{Reason: fmt.Sprintf("frame declares %d bytes (max %d)", declared, MaxFrameSize)}
	}
	return int(declared), binary.LittleEndian.Uint32(hdr[4:8]), nil
}

// checkBody verifies type + payload against the header's checksum.
func checkBody(body []byte, want uint32) error {
	if got := crc32.Checksum(body, castagnoli); got != want {
		return &FrameError{Reason: fmt.Sprintf("frame checksum mismatch (%08x != %08x)", got, want)}
	}
	return nil
}

// ReadFrame reads exactly one frame from an unbuffered stream, reusing
// buf when it is large enough, and returns the frame type and payload
// (aliasing the returned buffer, valid until the next ReadFrame with the
// same buf). io.EOF is returned unwrapped when the stream ends cleanly
// between frames; a frame that fails validation returns a *FrameError.
// It never reads past the frame, which is what tools that share the
// stream with other readers need; connections are read through a Reader.
func ReadFrame(r io.Reader, buf []byte) (Type, []byte, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, buf, &FrameError{Reason: "truncated frame header"}
		}
		return 0, nil, buf, err
	}
	n, crc, err := parseHeader(hdr[:])
	if err != nil {
		return 0, nil, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, &FrameError{Reason: "truncated frame payload"}
	}
	if err := checkBody(body, crc); err != nil {
		return 0, nil, buf, err
	}
	return Type(body[0]), body[1:], buf, nil
}

// readerSize is a Reader's initial buffer: every request frame and the
// whole answer of a point lookup or a top-10 fit, so the steady state is
// one read per message and no growth.
const readerSize = 4 << 10

// Reader reads frames from one connection through a buffer it owns. A
// frame is only ever looked at in the buffer and consumed whole, so a
// Next that fails part-way through one — a read deadline that fired with
// half a body in — has torn nothing: the bytes that arrived stay
// buffered and the next call carries on from them. That is what lets a
// deadline be used to interrupt a parked reader.
type Reader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] has been read from src and not yet consumed
}

// NewReader returns a Reader over src.
func NewReader(src io.Reader) *Reader {
	return &Reader{src: src, buf: make([]byte, readerSize)}
}

// Buffered reports how many bytes have arrived and not been consumed.
// After a Next that failed on a timeout it is non-zero exactly when part
// of a frame had come in.
func (fr *Reader) Buffered() int { return fr.w - fr.r }

// Next returns the next frame's type and payload. The payload aliases
// the Reader's buffer and is valid until the following call. io.EOF is
// returned unwrapped when the stream ends cleanly between frames, a
// frame that fails validation returns a *FrameError, and any other error
// is the source's own — after which Next may be called again.
func (fr *Reader) Next() (Type, []byte, error) {
	hdr, err := fr.peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = &FrameError{Reason: "truncated frame header"}
		}
		return 0, nil, err
	}
	n, crc, err := parseHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	frame, err := fr.peek(frameHeaderSize + n)
	if err != nil {
		if err == io.EOF {
			err = &FrameError{Reason: "truncated frame payload"}
		}
		return 0, nil, err
	}
	body := frame[frameHeaderSize:]
	if err := checkBody(body, crc); err != nil {
		return 0, nil, err
	}
	fr.r += len(frame)
	return Type(body[0]), body[1:], nil
}

// peek returns the next n unconsumed bytes, reading until they are in.
// On error it returns what has arrived so far, still unconsumed.
func (fr *Reader) peek(n int) ([]byte, error) {
	for fr.w-fr.r < n {
		if fr.r == fr.w {
			fr.r, fr.w = 0, 0
		}
		if fr.r+n > len(fr.buf) {
			// The frame does not fit behind the read position: move what
			// has arrived to the front, of a larger buffer if need be.
			buf := fr.buf
			if n > len(buf) {
				buf = make([]byte, max(n, min(2*len(buf), frameHeaderSize+MaxFrameSize)))
			}
			fr.w = copy(buf, fr.buf[fr.r:fr.w])
			fr.r, fr.buf = 0, buf
		}
		m, err := fr.src.Read(fr.buf[fr.w:])
		fr.w += m
		if err != nil && fr.w-fr.r < n {
			return fr.buf[fr.r:fr.w], err
		}
	}
	return fr.buf[fr.r : fr.r+n], nil
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
	// Every column takes at least its length byte, so a count past the
	// bytes that follow is a lie, refused before it sizes an allocation.
	n, sz := binary.Uvarint(rest)
	if sz <= 0 || n > uint64(len(rest)-sz) {
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

// RowBatch carries result tuples, amortizing the 9-byte frame header and
// per-frame CRC over a batch. High-fanout scans produce thousands of
// small tuples; one syscall-sized frame per tuple would dominate the wire
// cost, so the server coalesces them (a single tuple is a batch of one).
// The payload is the request id, a uvarint tuple
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
	id, n, rest, err := rowBatchHeader(p)
	if err != nil {
		return 0, nil, err
	}
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
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

// CheckRowBatch validates a RowBatch payload without decoding it: it
// accepts exactly the payloads DecodeRowBatch accepts, failing the rest
// with the same error, and returns the request id, the tuple count and
// the tuples still encoded, back to back (aliasing p). It allocates
// nothing, unless a tuple holds GEOMETRY text to parse. A relay that only
// forwards the rows checks them with this and decodes nothing.
func CheckRowBatch(p []byte) (id uint32, n int, tuples []byte, err error) {
	id, n, rest, err := rowBatchHeader(p)
	if err != nil {
		return 0, 0, nil, err
	}
	tuples = rest
	for i := 0; i < n; i++ {
		used, err := types.RowSize(rest)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("wire: %w", err)
		}
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return 0, 0, nil, &FrameError{Reason: "trailing bytes after row batch"}
	}
	return id, n, tuples, nil
}

// rowBatchHeader reads a RowBatch payload's request id and tuple count and
// returns the tuple bytes that follow.
func rowBatchHeader(p []byte) (id uint32, n int, rest []byte, err error) {
	if len(p) < 4 {
		return 0, 0, nil, &FrameError{Reason: "truncated row batch"}
	}
	id = binary.LittleEndian.Uint32(p[0:4])
	// As in DecodeRowDesc: a tuple is at least one byte.
	count, sz := binary.Uvarint(p[4:])
	if sz <= 0 || count > uint64(len(p)-4-sz) {
		return 0, 0, nil, &FrameError{Reason: "truncated batch count"}
	}
	return id, int(count), p[4+sz:], nil
}

// AppendRowBatchTuples encodes a RowBatch payload from n tuples already
// in the engine's encoding, back to back — what CheckRowBatch returns.
func AppendRowBatchTuples(dst []byte, id uint32, n int, tuples []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	dst = binary.AppendUvarint(dst, uint64(n))
	return append(dst, tuples...)
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
