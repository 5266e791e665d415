package frontend

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"recdb/internal/metrics"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// request is one decoded Query or Exec frame awaiting execution.
type request struct {
	kind wire.Type
	req  wire.Request
}

// session is one client connection. The reader goroutine decodes frames
// — answering Ping and Cancel immediately — and hands Query/Exec
// requests to the worker goroutine, which executes them one at a time
// and streams responses. mu guards the request-lifecycle state shared
// between the two.
type session struct {
	f    *Frontend
	id   uint64
	conn net.Conn
	in   *countReader
	out  *frameWriter
	reqs chan request
	// be carries per-connection backend state (an open transaction).
	// Only the worker goroutine touches it while the connection lives;
	// run closes it after the worker exits, rolling back any transaction
	// a dropped client left open.
	be Session

	mu sync.Mutex
	// depth counts requests admitted but not yet executed to the end: it
	// is what wire.PipelineDepth bounds. A request leaves it before the
	// first byte of its answer is written, so a client that refills its
	// pipeline the instant an answer arrives never finds that answer's
	// slot still taken.
	depth int
	// unanswered counts requests admitted whose answer is not yet fully
	// written; drain-close and idle reaping wait for it to reach zero.
	unanswered int
	curID      uint32             // id of the statement now executing
	curCancel  context.CancelFunc // interrupts it; nil between statements
	draining   bool
}

func newSession(f *Frontend, id uint64, conn net.Conn) *session {
	return &session{
		f:    f,
		id:   id,
		conn: conn,
		in:   &countReader{r: conn, c: f.m.bytesIn},
		out:  newFrameWriter(conn, f.m.bytesOut, f.opts.WriteTimeout),
		reqs: make(chan request, wire.PipelineDepth),
		be:   f.backend.Open(),
	}
}

// run drives the session to completion: handshake, then reader and
// worker until the connection ends.
func (s *session) run() {
	defer s.closeConn()
	// A client that vanished mid-transaction must not leave its table
	// locks and snapshot pins held: closing the backend session rolls
	// the transaction back. Runs after the worker has exited, which is
	// the only goroutine using be.
	defer func() { _ = s.be.Close() }()
	if err := s.handshake(); err != nil {
		s.f.logf("session %d: %v", s.id, err)
		return
	}
	done := make(chan struct{})
	go func() {
		s.worker()
		close(done)
	}()
	s.reader()
	// The client is gone (or broke protocol): stop the running statement
	// rather than finishing a scan nobody will read.
	s.cancelCurrent()
	close(s.reqs)
	<-done
}

// handshake consumes the client's magic preamble and answers Hello.
func (s *session) handshake() error {
	_ = s.conn.SetReadDeadline(time.Now().Add(s.f.opts.IdleTimeout))
	var magic [len(wire.Magic)]byte
	if _, err := io.ReadFull(s.in, magic[:]); err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	if string(magic[:]) != wire.Magic {
		_ = s.out.writeError(wire.ErrorMsg{Code: wire.CodeProtocol, Message: "bad protocol magic"})
		return errors.New("bad protocol magic")
	}
	return s.out.write(wire.TypeHello,
		wire.AppendHello(nil, wire.Hello{SessionID: s.id, Server: s.f.opts.Name}))
}

// reader decodes frames until the connection ends or breaks protocol.
// The idle deadline only fires a disconnect when no request is
// unanswered and no partial frame has arrived; while a statement runs, a
// quiet client is expected and the deadline just re-arms.
func (s *session) reader() {
	buf := make([]byte, 512)
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(s.f.opts.IdleTimeout))
		before := s.in.n
		t, payload, nbuf, err := wire.ReadFrame(s.in, buf)
		buf = nbuf
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && s.in.n == before && s.hasUnanswered() {
				continue
			}
			var fe *wire.FrameError
			if errors.As(err, &fe) {
				s.protocolFault(fe)
			}
			return
		}
		switch t {
		case wire.TypePing, wire.TypeCancel:
			id, err := wire.DecodeID(payload)
			if err != nil {
				s.protocolFault(err)
				return
			}
			if t == wire.TypeCancel {
				s.cancelRequest(id)
				continue
			}
			// Liveness is the front end's own: a router answers for
			// itself, its shards' health is the prober's job.
			_ = s.out.write(wire.TypePong, wire.AppendID(nil, id))
		case wire.TypeQuery, wire.TypeExec:
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				s.protocolFault(err)
				return
			}
			s.enqueue(request{kind: t, req: req})
		default:
			s.protocolFault(fmt.Errorf("unexpected frame type %q", byte(t)))
			return
		}
	}
}

// protocolFault answers a malformed frame; the caller then drops the
// connection, since framing state can no longer be trusted.
func (s *session) protocolFault(err error) {
	_ = s.out.writeError(wire.ErrorMsg{Code: wire.CodeProtocol, Message: err.Error()})
}

func (s *session) refuseShutdown(id uint32) {
	_ = s.out.writeError(wire.ErrorMsg{ID: id, Code: wire.CodeShutdown,
		Message: s.f.noun + " is shutting down"})
}

// enqueue hands a request to the worker, or answers it directly when the
// session is draining or the pipeline is full.
func (s *session) enqueue(r request) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.refuseShutdown(r.req.ID)
		return
	}
	if s.depth >= wire.PipelineDepth {
		s.mu.Unlock()
		_ = s.out.writeError(wire.ErrorMsg{ID: r.req.ID, Code: wire.CodeBusy,
			Message: fmt.Sprintf("pipeline limit of %d requests reached", wire.PipelineDepth)})
		return
	}
	s.depth++
	s.unanswered++
	s.mu.Unlock()
	// Never blocks: a request stays in depth (bounded above by
	// wire.PipelineDepth) at least until the worker has taken it off the
	// channel, so channel occupancy is strictly below capacity here.
	s.reqs <- r
}

// worker executes requests in arrival order.
func (s *session) worker() {
	for r := range s.reqs {
		s.serve(r)
	}
}

// serve executes one request and writes its response frames. A panic is
// confined to this session: it answers an "internal" error and closes
// the connection, leaving the process and other sessions running.
func (s *session) serve(r request) {
	defer s.finishRequest()
	defer func() {
		if p := recover(); p != nil {
			s.f.m.panics.Inc()
			s.f.logf("session %d: panic serving %q: %v", s.id, r.req.SQL, p)
			_ = s.out.writeError(wire.ErrorMsg{ID: r.req.ID, Code: wire.CodeInternal,
				Message: fmt.Sprintf("internal error: %v", p)})
			s.closeConn()
		}
	}()
	ctx, cancel, ok := s.beginRequest(r.req)
	if !ok {
		s.refuseShutdown(r.req.ID)
		return
	}
	defer s.endRequest(cancel)

	start := time.Now()
	if hook := s.f.testExecHook; hook != nil {
		hook(r.req.SQL)
	}
	var rows Rows
	var affected int64
	var err error
	if r.kind == wire.TypeQuery {
		rows, err = s.be.Query(ctx, r.req.SQL)
	} else {
		affected, err = s.be.Exec(ctx, r.req.SQL)
	}
	s.retire()
	switch {
	case err != nil:
		s.writeFailure(r.req.ID, err)
		return
	case r.kind == wire.TypeQuery:
		err = s.out.writeRows(r.req.ID, rows)
	default:
		err = s.out.write(wire.TypeComplete,
			wire.AppendComplete(nil, wire.Complete{ID: r.req.ID, Rows: affected}))
	}
	if err != nil {
		return // connection-level failure; reader will notice too
	}
	s.f.m.queries.Inc()
	s.f.m.queryNs.ObserveSince(start)
}

// beginRequest publishes the statement as cancellable and derives its
// context: the front end's QueryTimeout, tightened — never loosened — by
// the request's own TimeoutMillis. ok is false when the session started
// draining while the request sat queued: it is retired unexecuted.
func (s *session) beginRequest(r wire.Request) (ctx context.Context, cancel context.CancelFunc, ok bool) {
	timeout := s.f.opts.QueryTimeout
	if d := time.Duration(r.TimeoutMillis) * time.Millisecond; d > 0 && (timeout == 0 || d < timeout) {
		timeout = d
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	s.mu.Lock()
	if s.draining {
		s.depth--
		s.mu.Unlock()
		cancel()
		return nil, nil, false
	}
	s.curID, s.curCancel = r.ID, cancel
	s.mu.Unlock()
	return ctx, cancel, true
}

// retire takes the statement that just finished executing out of the
// pipeline bound, before any byte of its answer is written.
func (s *session) retire() {
	s.mu.Lock()
	s.depth--
	s.mu.Unlock()
}

func (s *session) endRequest(cancel context.CancelFunc) {
	s.mu.Lock()
	s.curCancel = nil
	s.mu.Unlock()
	cancel()
}

// finishRequest marks one request's answer fully written; during a
// drain, the last answer closes the connection.
func (s *session) finishRequest() {
	s.mu.Lock()
	s.unanswered--
	closeNow := s.draining && s.unanswered == 0
	s.mu.Unlock()
	if closeNow {
		s.closeConn()
	}
}

// writeFailure answers a failed statement with a typed error code: the
// backend's own when the error carries one, otherwise by context cause.
func (s *session) writeFailure(id uint32, err error) {
	msg := wire.ErrorMsg{ID: id, Code: wire.CodeQuery, Message: err.Error()}
	var be *Error
	switch {
	case errors.As(err, &be):
		msg.Code, msg.Message = be.Code, be.Message
	case errors.Is(err, context.DeadlineExceeded):
		msg.Code = wire.CodeTimeout
	case errors.Is(err, context.Canceled):
		msg.Code = wire.CodeCanceled
	}
	_ = s.out.writeError(msg)
}

// cancelRequest interrupts the in-flight statement if it matches id.
func (s *session) cancelRequest(id uint32) {
	s.mu.Lock()
	cancel := s.curCancel
	match := cancel != nil && s.curID == id
	s.mu.Unlock()
	if match {
		cancel()
	}
}

// cancelCurrent interrupts whatever statement is running.
func (s *session) cancelCurrent() {
	s.mu.Lock()
	cancel := s.curCancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// beginDrain stops the session admitting requests; if every answer is
// written the connection closes now, otherwise the worker closes it
// after the last one.
func (s *session) beginDrain() {
	s.mu.Lock()
	s.draining = true
	idle := s.unanswered == 0
	s.mu.Unlock()
	if idle {
		s.closeConn()
	}
}

func (s *session) hasUnanswered() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unanswered > 0
}

// closeConn is safe to call from any goroutine, repeatedly.
func (s *session) closeConn() {
	_ = s.conn.Close()
}

// countReader counts bytes into a metrics counter; n lets the reader
// goroutine (its only caller) distinguish an idle timeout from one that
// interrupted a partial frame.
type countReader struct {
	r io.Reader
	c *metrics.Counter
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	cr.c.Add(int64(n))
	return n, err
}

// countWriter counts bytes out beneath the session's bufio.Writer.
type countWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(int64(n))
	return n, err
}

// frameWriter serializes response frames from the worker and the reader
// (Pong, protocol errors) onto one buffered connection.
type frameWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
}

func newFrameWriter(conn net.Conn, c *metrics.Counter, timeout time.Duration) *frameWriter {
	return &frameWriter{
		conn:    conn,
		bw:      bufio.NewWriter(&countWriter{w: conn, c: c}),
		timeout: timeout,
	}
}

// write sends one frame and flushes it.
func (w *frameWriter) write(t wire.Type, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := wire.WriteFrame(w.bw, t, payload); err != nil {
		return err
	}
	return w.flushLocked()
}

func (w *frameWriter) writeError(e wire.ErrorMsg) error {
	return w.write(wire.TypeError, wire.AppendError(nil, e))
}

// rowBatchTarget is the encoded-tuple budget per RowBatch frame: small
// enough to keep first-row latency low, large enough that high-fanout
// scans amortize the frame header and CRC over hundreds of tuples.
const rowBatchTarget = 32 << 10

// writeRows streams a Query answer: RowDescription, the data rows, then
// CommandComplete. Consecutive tuples coalesce into RowBatch frames of
// about rowBatchTarget encoded bytes; a batch that ends up holding a
// single tuple is sent as a plain DataRow, so low-fanout answers look
// exactly as they did before batching existed. Both backends hand over
// materialized rows, so holding the write lock here costs encoding time
// only, never executor time.
func (w *frameWriter) writeRows(id uint32, rows Rows) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	desc := wire.RowDesc{ID: id, Strategy: rows.Strategy(), Columns: rows.Columns()}
	if err := wire.WriteFrame(w.bw, wire.TypeRowDesc, wire.AppendRowDesc(nil, desc)); err != nil {
		return err
	}
	var n int64
	count := 0
	tuples := make([]byte, 0, 4096)
	scratch := make([]byte, 0, 256)
	flushBatch := func() error {
		if count == 0 {
			return nil
		}
		t := wire.TypeDataRow
		scratch = wire.AppendID(scratch[:0], id)
		if count > 1 {
			t = wire.TypeRowBatch
			scratch = binary.AppendUvarint(scratch, uint64(count))
		}
		scratch = append(scratch, tuples...)
		tuples, count = tuples[:0], 0
		if err := wire.WriteFrame(w.bw, t, scratch); err != nil {
			return err
		}
		if w.bw.Buffered() > 1<<16 {
			return w.flushLocked()
		}
		return nil
	}
	for rows.Next() {
		tuples = types.EncodeRow(tuples, rows.Row())
		count++
		n++
		if len(tuples) >= rowBatchTarget {
			if err := flushBatch(); err != nil {
				return err
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}
	done := wire.AppendComplete(scratch[:0], wire.Complete{ID: id, Rows: n})
	if err := wire.WriteFrame(w.bw, wire.TypeComplete, done); err != nil {
		return err
	}
	return w.flushLocked()
}

func (w *frameWriter) flushLocked() error {
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.bw.Flush()
}
