package frontend

import (
	"context"
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

const (
	// inlineBudget is how long a statement may take for the session's next
	// one to run on the goroutine that read it without giving up the read
	// token first. It sits above the p95 of every statement class the
	// ledger runs (benchmark/README.md, client-observed: routed point
	// lookup, IVF top-10 and un-materialised ItemCosCF top-10 each under
	// 0.6 ms, durable INSERT 0.9–1.0 ms), so all of those run inline. The
	// long statements are the ones past it — a RECOMMEND over every user, a
	// full scan or join of a large table, a model build — which take
	// milliseconds to seconds. A session of long statements must keep
	// handing the token over before it computes, because a goroutine the
	// runtime's blocking netpoll made ready starts no other thread, so
	// while it computes nothing in the process polls the network and every
	// other connection waits for sysmon (up to 10 ms).
	inlineBudget = 1500 * time.Microsecond
	// overseerTick is how often the front end's overseer looks for an
	// inline statement that has outrun inlineBudget, so a Cancel or Ping
	// waits behind one for at most inlineBudget + overseerTick. A ticker
	// and not a timer per statement: arming a timer that becomes a P's
	// earliest wakes the netpoller, which is the hand-off running inline
	// exists to avoid. Coarse, because each tick is itself a wake-up in
	// every serving process: at 2 ms the three processes of the ledger's
	// cluster tick 1 500 times a second between them, against the
	// ~30 000 wake-ups a second its routed lookups need.
	overseerTick = 2 * time.Millisecond
)

// request is one decoded Query or Exec frame awaiting execution.
type request struct {
	kind wire.Type
	req  wire.Request
}

// session is one client connection. Reading the connection is a token
// that exactly one goroutine holds. The holder decodes frames —
// answering Ping and Cancel itself — and executes the Query/Exec it
// decodes on the spot: with the token still in hand (inline: nobody
// reads meanwhile, no second goroutine exists) when the session's last
// statement was short, after starting a second goroutine to hold the
// token otherwise. The overseer does that second thing late for an
// inline statement that overran. A goroutine that executes without the
// token works off what the holder queued behind it and then exits, so a
// session is one goroutine between statements, at most two during one,
// and the last one out tears it down. mu guards the request-lifecycle
// state they share.
type session struct {
	f    *Frontend
	id   uint64
	conn net.Conn
	in   *wire.Reader // the token holder's
	out  *frameWriter
	// be carries per-connection backend state (an open transaction). Only
	// the goroutine that set executing uses it; the last goroutine out
	// closes it, rolling back any transaction a dropped client left open.
	be Session

	mu         sync.Mutex
	goroutines int       // running loop or run; the one that takes it to zero ends the session
	executing  bool      // a goroutine is between taking a request and settling it
	inline     bool      // ...and that goroutine still holds the read token
	began      time.Time // when the inline statement started, for the overseer
	short      bool      // the last statement settled inside inlineBudget
	queue      []request // admitted behind the executing statement, in arrival order
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
		f:          f,
		id:         id,
		conn:       conn,
		in:         wire.NewReader(&countReader{r: conn, c: f.m.bytesIn}),
		out:        &frameWriter{conn: conn, sent: f.m.bytesOut, timeout: f.opts.WriteTimeout},
		be:         f.backend.Open(),
		goroutines: 1,
	}
}

// start runs the session's first goroutine: handshake, then the loop.
func (s *session) start() {
	if err := s.handshake(); err != nil {
		s.f.logf("session %d: %v", s.id, err)
		s.leave()
		return
	}
	s.loop()
}

// leave retires the calling goroutine; the last one out ends the
// session. A client that vanished mid-transaction must not leave its
// table locks and snapshot pins held: closing the backend session rolls
// the transaction back, and by now nothing else can be using it.
func (s *session) leave() {
	s.mu.Lock()
	s.goroutines--
	last := s.goroutines == 0
	s.mu.Unlock()
	if last {
		s.closeConn()
		_ = s.be.Close()
		s.f.ended(s)
	}
}

// handshake consumes the client's magic preamble and answers Hello.
func (s *session) handshake() error {
	_ = s.conn.SetReadDeadline(time.Now().Add(s.f.opts.IdleTimeout))
	var magic [len(wire.Magic)]byte
	if _, err := io.ReadFull(s.conn, magic[:]); err != nil {
		return fmt.Errorf("reading magic: %w", err)
	}
	s.f.m.bytesIn.Add(int64(len(magic)))
	if string(magic[:]) != wire.Magic {
		_ = s.out.writeError(wire.ErrorMsg{Code: wire.CodeProtocol, Message: "bad protocol magic"})
		return errors.New("bad protocol magic")
	}
	return s.out.writeHello(wire.Hello{SessionID: s.id, Server: s.f.opts.Name})
}

// loop is the session's one loop, run by whichever goroutine holds the
// read token, until the connection ends or the token moves on. The idle
// deadline only disconnects a session with no answer outstanding, or one
// whose client stopped part-way through a frame; while a statement runs
// a quiet client is expected and the deadline just re-arms.
func (s *session) loop() {
	defer s.leave()
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(s.f.opts.IdleTimeout))
		t, payload, err := s.in.Next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && s.in.Buffered() == 0 && s.hasUnanswered() {
				continue
			}
			var fe *wire.FrameError
			if errors.As(err, &fe) {
				s.protocolFault(fe)
			}
			// The client is gone (or broke protocol): stop the running
			// statement rather than finishing a scan nobody will read.
			s.cancelCurrent()
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
			_ = s.out.writePong(id)
		case wire.TypeQuery, wire.TypeExec:
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				s.protocolFault(err)
				return
			}
			r := request{kind: t, req: req}
			start := time.Now()
			mine, handOver := s.admit(r, start)
			if !mine {
				continue
			}
			if handOver {
				s.f.handOvers.Add(1)
				go s.loop()
			}
			if !s.run(r, start) {
				return
			}
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

// admit decides what becomes of a request the token holder just decoded.
// It is refused when the session is draining or the pipeline is full,
// and queued when another goroutine is executing. Otherwise it is the
// caller's to run (mine): inline if the last statement was short, and if
// not, only after the caller has started a goroutine to read in its
// place (handOver) — a session's first statement goes that way too.
func (s *session) admit(r request, now time.Time) (mine, handOver bool) {
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.refuseShutdown(r.req.ID)
		return false, false
	case s.depth >= wire.PipelineDepth:
		s.mu.Unlock()
		_ = s.out.writeError(wire.ErrorMsg{ID: r.req.ID, Code: wire.CodeBusy,
			Message: fmt.Sprintf("pipeline limit of %d requests reached", wire.PipelineDepth)})
		return false, false
	}
	s.depth++
	s.unanswered++
	if s.executing {
		s.queue = append(s.queue, r)
		s.mu.Unlock()
		return false, false
	}
	s.executing = true
	s.inline = s.short
	if s.inline {
		s.began = now
	} else {
		s.goroutines++
	}
	handOver = !s.inline
	s.mu.Unlock()
	return true, handOver
}

// relieve is the overseer's late hand-over: an inline statement that has
// outrun inlineBudget loses the read token to a new goroutine, so Cancel,
// Ping and pipeline admission work again while it runs.
func (s *session) relieve(now time.Time) {
	s.mu.Lock()
	overdue := s.inline && now.Sub(s.began) >= inlineBudget
	if overdue {
		s.inline = false
		s.goroutines++
	}
	s.mu.Unlock()
	if overdue {
		s.f.handOvers.Add(1)
		go s.loop()
	}
}

// run executes r — decoded at start — and then whatever was queued
// behind it. It reports whether the caller still holds the read token;
// if not, the queue is empty and the caller has nothing left to do for
// this session.
func (s *session) run(r request, start time.Time) (holdsToken bool) {
	for {
		s.serve(r, start)
		var more bool
		if r, more, holdsToken = s.settle(time.Since(start)); !more {
			return holdsToken
		}
		start = time.Now()
	}
}

// settle marks one request's answer fully written — during a drain the
// last answer closes the connection — and finds the executing goroutine
// its next job: back to reading if it held the token throughout, else
// the next queued request, else none.
func (s *session) settle(took time.Duration) (next request, more, holdsToken bool) {
	s.mu.Lock()
	s.short = took < inlineBudget
	s.unanswered--
	closeNow := s.draining && s.unanswered == 0
	switch {
	case s.inline:
		s.inline, s.executing = false, false
		holdsToken = true
	case len(s.queue) > 0:
		next, more = s.queue[0], true
		s.queue = s.queue[:copy(s.queue, s.queue[1:])]
	default:
		s.executing = false
	}
	s.mu.Unlock()
	if closeNow {
		s.closeConn()
	}
	return next, more, holdsToken
}

// serve executes one request and writes its response frames. A panic is
// confined to this session: it answers an "internal" error and closes
// the connection, leaving the process and other sessions running.
func (s *session) serve(r request, start time.Time) {
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
		err = s.out.writeComplete(wire.Complete{ID: r.req.ID, Rows: affected})
	}
	if err != nil {
		// An answer too large to frame has been answered with an error; any
		// other failure is the connection's, and the token holder will
		// notice too.
		return
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
// written the connection closes now, otherwise settle closes it after
// the last one.
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

// countReader counts bytes in beneath the session's frame reader.
type countReader struct {
	r io.Reader
	c *metrics.Counter
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(int64(n))
	return n, err
}

// frameWriter serializes response frames from the executing goroutine
// and the token holder (Pong, refusals, protocol errors) onto the
// connection. Frames are encoded in place into buf, which lives as long
// as the session, and leave in one Write per answer.
type frameWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	sent    *metrics.Counter // bytes written
	timeout time.Duration
	buf     []byte // frames encoded and not yet sent
	tuples  []byte // the open row batch
}

// beginLocked opens a frame of type t at the end of buf and returns where
// it starts; the caller appends the payload to buf and calls endLocked.
func (w *frameWriter) beginLocked(t wire.Type) (start int) {
	start = len(w.buf)
	w.buf = wire.BeginFrame(w.buf, t)
	return start
}

// endLocked closes the frame begun at start. A frame too large to send
// is dropped from buf with everything encoded before it.
func (w *frameWriter) endLocked(start int) error {
	var err error
	if w.buf, err = wire.EndFrame(w.buf, start); err != nil {
		w.buf = w.buf[:0]
	}
	return err
}

// flushLocked sends what buf holds and empties it, whatever the outcome:
// after a failed write the connection is finished.
func (w *frameWriter) flushLocked() error {
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	n, err := w.conn.Write(w.buf)
	w.sent.Add(int64(n))
	w.buf = w.buf[:0]
	return err
}

// sendLocked closes the only frame in buf and flushes it.
func (w *frameWriter) sendLocked(start int) error {
	if err := w.endLocked(start); err != nil {
		return err
	}
	return w.flushLocked()
}

func (w *frameWriter) writeHello(h wire.Hello) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(wire.TypeHello)
	w.buf = wire.AppendHello(w.buf, h)
	return w.sendLocked(start)
}

func (w *frameWriter) writePong(id uint32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(wire.TypePong)
	w.buf = wire.AppendID(w.buf, id)
	return w.sendLocked(start)
}

func (w *frameWriter) writeComplete(c wire.Complete) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(wire.TypeComplete)
	w.buf = wire.AppendComplete(w.buf, c)
	return w.sendLocked(start)
}

func (w *frameWriter) writeError(e wire.ErrorMsg) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.beginLocked(wire.TypeError)
	w.buf = wire.AppendError(w.buf, e)
	return w.sendLocked(start)
}

const (
	// rowBatchTarget is the encoded-tuple budget per RowBatch frame: small
	// enough to keep first-row latency low, large enough that high-fanout
	// scans amortize the frame header and CRC over hundreds of tuples.
	rowBatchTarget = 32 << 10
	// flushTarget is how much of an answer accumulates before it is sent
	// ahead of the rest.
	flushTarget = 64 << 10
)

// unframable is an answer the writer cannot put into frames: a row past
// wire.MaxFrameSize, or relayed tuples that do not parse.
type unframable struct{ error }

// writeRows streams a Query answer: RowDescription, the data rows, then
// CommandComplete. Consecutive tuples coalesce into RowBatch frames, each
// closed at the first tuple boundary at or past rowBatchTarget encoded
// bytes (a one-tuple answer is a RowBatch of count 1). Rows that arrive
// still encoded (see encodedRows) are framed as they are; any others are
// encoded here. Both backends hand over materialized rows, so holding the
// write lock costs framing time only, never executor time.
//
// An answer that cannot be framed is cut short: what of it is unsent is
// dropped, and a "query" Error frame naming the size and the bound
// answers the request instead — the client discards the rows it has of
// it — so the connection serves the next statement. writeRows then
// reports the unframable error; any other error is the connection's.
func (w *frameWriter) writeRows(id uint32, rows Rows) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.rowsLocked(id, rows)
	var u unframable
	if !errors.As(err, &u) {
		return err
	}
	// What grew to hold the answer is not kept for the session's next one.
	w.buf, w.tuples = nil, nil
	start := w.beginLocked(wire.TypeError)
	w.buf = wire.AppendError(w.buf, wire.ErrorMsg{ID: id, Code: wire.CodeQuery,
		Message: "answer cannot be sent: " + u.Error()})
	if err := w.sendLocked(start); err != nil {
		return err
	}
	return u
}

// encodedRows is a Rows that can give up its tuples still in the engine's
// encoding, back to back — a shard's answer the router relays
// (client.Rows). ok is false once they have been decoded.
type encodedRows interface {
	Encoded() (tuples []byte, n int, ok bool)
}

// rowsLocked frames a whole answer. Framing failures come back
// unframable.
func (w *frameWriter) rowsLocked(id uint32, rows Rows) error {
	start := w.beginLocked(wire.TypeRowDesc)
	w.buf = wire.AppendRowDesc(w.buf, wire.RowDesc{ID: id, Strategy: rows.Strategy(), Columns: rows.Columns()})
	if err := w.endLocked(start); err != nil {
		return unframable{err}
	}
	var n int64
	var err error
	if tuples, count, ok := encoded(rows); ok {
		n, err = int64(count), w.relayLocked(id, tuples, count)
	} else {
		n, err = w.encodeLocked(id, rows)
	}
	if err != nil {
		return err
	}
	start = w.beginLocked(wire.TypeComplete)
	w.buf = wire.AppendComplete(w.buf, wire.Complete{ID: id, Rows: n})
	return w.sendLocked(start)
}

// encoded returns rows' tuples still encoded, when it has them so.
func encoded(rows Rows) (tuples []byte, n int, ok bool) {
	if er, is := rows.(encodedRows); is {
		return er.Encoded()
	}
	return nil, 0, false
}

// encodeLocked encodes rows into RowBatch frames and counts them.
func (w *frameWriter) encodeLocked(id uint32, rows Rows) (int64, error) {
	var n int64
	w.tuples = w.tuples[:0]
	count := 0
	for rows.Next() {
		w.tuples = types.EncodeRow(w.tuples, rows.Row())
		count++
		n++
		if len(w.tuples) >= rowBatchTarget {
			if err := w.batchLocked(id, count, w.tuples); err != nil {
				return n, err
			}
			w.tuples, count = w.tuples[:0], 0
		}
	}
	return n, w.batchLocked(id, count, w.tuples)
}

// relayLocked frames n encoded tuples, cutting batches where the encoding
// path would: an answer under rowBatchTarget is one batch as it stands,
// and only a longer one is walked for its tuple boundaries.
func (w *frameWriter) relayLocked(id uint32, tuples []byte, n int) error {
	for len(tuples) > 0 {
		cut, count := len(tuples), n
		if cut >= rowBatchTarget {
			cut, count = 0, 0
			for cut < rowBatchTarget {
				size, err := types.RowSize(tuples[cut:])
				if err != nil {
					return unframable{err}
				}
				cut, count = cut+size, count+1
			}
		}
		if err := w.batchLocked(id, count, tuples[:cut]); err != nil {
			return err
		}
		tuples, n = tuples[cut:], n-count
	}
	return nil
}

// batchLocked appends one RowBatch of count tuples (none: no frame), and
// sends what has accumulated once it passes flushTarget.
func (w *frameWriter) batchLocked(id uint32, count int, tuples []byte) error {
	if count == 0 {
		return nil
	}
	start := w.beginLocked(wire.TypeRowBatch)
	w.buf = wire.AppendRowBatchTuples(w.buf, id, count, tuples)
	if err := w.endLocked(start); err != nil {
		return unframable{err}
	}
	if len(w.buf) > flushTarget {
		return w.flushLocked()
	}
	return nil
}
