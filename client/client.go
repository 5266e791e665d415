// Package client is the Go client for recdb-server: it dials the wire
// protocol (internal/wire), runs statements, and decodes results into
// the same row representation the embedded API uses, so code written
// against recdb.Rows ports to the network client by swapping the
// constructor.
//
// A Conn is one session and is safe for concurrent use. Requests are
// pipelined: up to 16 may be in flight on the wire at once (the server's
// own pipeline bound), so concurrent callers share one connection's
// round trips instead of queueing behind each other. Every request
// carries a client-assigned id, so answers may interleave freely. No
// goroutine belongs to a Conn: a caller that has sent its request reads
// the connection itself, handing any frame that answers another caller
// to that caller, until its own answer is complete, and then passes the
// reading on to a caller still waiting — a Conn used by one caller at a
// time never wakes anything. A context with a deadline propagates to the
// server as the request's timeout; cancelling the context sends a Cancel
// frame so the server stops executing, and the call returns once the
// server acknowledges with its terminal answer.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"recdb/internal/types"
	"recdb/internal/wire"
)

// cancelGrace bounds how long a cancelled call waits for the server's
// terminal answer before giving up on the connection. A cancelled
// request that is still queued behind others on the server is not
// interrupted until it starts executing, so this is a backstop against
// a hung server, not the normal cancel path.
const cancelGrace = 5 * time.Second

// Row is one result tuple, identical to the embedded API's recdb.Row.
type Row = types.Row

// ServerError is a typed failure the server answered with.
type ServerError struct {
	// Code is one of the wire.Code* constants ("busy", "timeout",
	// "canceled", "query", "shard_down", ...).
	Code string
	// Message is the server's human-readable detail.
	Message string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("recdb server: %s: %s", e.Code, e.Message)
}

// ErrClosed is returned by calls on a closed (or poisoned) connection.
var ErrClosed = errors.New("client: connection closed")

// Result reports a statement's effect, mirroring recdb.Result.
type Result struct {
	RowsAffected int64
}

// call is one in-flight request. Whoever holds the reader role fills it
// in; its own caller reads it once it has held the role to the terminal
// answer, or been told through wake that someone else did.
type call struct {
	rows     *Rows
	complete wire.Complete
	err      error
	// wake is made for a caller that found another one reading. It
	// receives exactly once: true when the call is over, false when the
	// reader role is this caller's to take.
	wake chan bool
	// canceled is set once the call's context ended and a Cancel went out.
	canceled bool
}

// Conn is one client session. It is safe for concurrent use: callers
// share the connection's pipeline, each blocking only on its own answer.
type Conn struct {
	sessionID uint64
	server    string
	conn      net.Conn

	// slots holds wire.PipelineDepth tokens; acquiring one admits a
	// request into the pipeline.
	slots chan struct{}

	// wmu serializes frame writes onto the connection; wbuf is the frame
	// being sent.
	wmu  sync.Mutex
	wbuf []byte

	// in belongs to the caller holding the reader role and, like probe,
	// to whoever holds mu while there is no reader.
	in    *wire.Reader
	probe *hangupProbe

	// mu guards the demux state below.
	mu      sync.Mutex
	pending map[uint32]*call
	nextID  uint32
	reading bool  // a caller holds the reader role; false implies pending is empty
	closed  bool  // poisoned or closed
	cause   error // the transport failure that poisoned the conn
	// cancels counts pending calls whose Cancel has been sent. While it is
	// non-zero the connection's read deadline is armed cancelGrace ahead,
	// on behalf of cancelCause.
	cancels     int
	cancelCause error
	// passes counts reader-role hand-overs between callers, for tests.
	passes int

	// dead closes when the connection is poisoned or closed, unblocking
	// callers waiting for a pipeline slot.
	dead chan struct{}
}

// Dial connects to a recdb-server at addr and performs the handshake.
func Dial(addr string) (*Conn, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial bounded by ctx (connection establishment and
// handshake only).
func DialContext(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = nc.SetDeadline(dl)
	}
	if _, err := nc.Write([]byte(wire.Magic)); err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	in := wire.NewReader(nc)
	t, payload, err := in.Next()
	if err != nil {
		_ = nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch t {
	case wire.TypeHello:
		h, err := wire.DecodeHello(payload)
		if err != nil {
			_ = nc.Close()
			return nil, fmt.Errorf("client: handshake: %w", err)
		}
		_ = nc.SetDeadline(time.Time{})
		c := &Conn{
			sessionID: h.SessionID,
			server:    h.Server,
			conn:      nc,
			in:        in,
			probe:     newHangupProbe(nc),
			slots:     make(chan struct{}, wire.PipelineDepth),
			pending:   make(map[uint32]*call),
			dead:      make(chan struct{}),
		}
		for i := 0; i < wire.PipelineDepth; i++ {
			c.slots <- struct{}{}
		}
		return c, nil
	case wire.TypeError:
		e, derr := wire.DecodeError(payload)
		_ = nc.Close()
		if derr != nil {
			return nil, fmt.Errorf("client: handshake: %w", derr)
		}
		return nil, &ServerError{Code: e.Code, Message: e.Message}
	default:
		_ = nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected frame type %q", byte(t))
	}
}

// SessionID is the server-assigned session id from the handshake.
func (c *Conn) SessionID() uint64 { return c.sessionID }

// Server is the server string from the handshake.
func (c *Conn) Server() string { return c.server }

// Close closes the connection; in-flight calls fail with ErrClosed.
// Safe to call repeatedly.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}

// Closed reports whether the connection is closed or has been poisoned
// by a transport failure; a closed Conn never recovers (dial a new one).
// Nothing reads an idle connection, so Closed is also where a peer that
// hung up on one is found out: it looks at the socket without blocking,
// and a caller that asks before it sends — a pool — never writes a
// request to a server that is no longer there.
func (c *Conn) Closed() bool {
	c.mu.Lock()
	if c.closed || c.reading || c.in.Buffered() > 0 || !c.probe.hungUp() {
		closed := c.closed
		c.mu.Unlock()
		return closed
	}
	stranded := c.failLocked(fmt.Errorf("client: receive: %w", io.EOF))
	c.mu.Unlock()
	c.release(stranded)
	return true
}

// InFlight reports how many requests are awaiting their answer.
func (c *Conn) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Ping checks server liveness end to end.
func (c *Conn) Ping(ctx context.Context) error {
	_, _, err := c.roundTrip(ctx, wire.TypePing, "")
	return err
}

// Exec runs a statement or semicolon-separated script on the server and
// reports the rows affected.
func (c *Conn) Exec(ctx context.Context, sql string) (Result, error) {
	complete, _, err := c.roundTrip(ctx, wire.TypeExec, sql)
	if err != nil {
		return Result{}, err
	}
	return Result{RowsAffected: complete.Rows}, nil
}

// Query runs a SELECT (or EXPLAIN) and returns its materialized result.
func (c *Conn) Query(ctx context.Context, sql string) (*Rows, error) {
	_, rows, err := c.roundTrip(ctx, wire.TypeQuery, sql)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// roundTrip performs one pipelined request cycle: acquire a pipeline
// slot, send the frame, then read the connection — or wait for the
// caller who is reading it — until the request's terminal answer. When
// ctx carries a deadline it is forwarded as the server-side timeout;
// when ctx is cancelled a Cancel frame asks the server to interrupt, and
// the cycle still ends on the server's terminal answer (an unresponsive
// server is cut off by the cancelGrace backstop, which poisons the
// connection).
func (c *Conn) roundTrip(ctx context.Context, kind wire.Type, sql string) (wire.Complete, *Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return wire.Complete{}, nil, err
	}
	select {
	case <-c.slots:
	case <-c.dead:
		return wire.Complete{}, nil, c.closedErr()
	case <-ctx.Done():
		return wire.Complete{}, nil, ctx.Err()
	}
	defer func() { c.slots <- struct{}{} }()

	cl := &call{rows: &Rows{pos: -1}}
	c.mu.Lock()
	if c.closed {
		err := c.cause
		c.mu.Unlock()
		return wire.Complete{}, nil, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = cl
	reader := !c.reading
	if reader {
		c.reading = true
	} else {
		cl.wake = make(chan bool, 1)
	}
	c.mu.Unlock()

	var timeoutMillis uint32
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			timeoutMillis = uint32(min(ms, int64(^uint32(0))))
		} else {
			timeoutMillis = 1
		}
	}
	if err := c.send(kind, wire.Request{ID: id, TimeoutMillis: timeoutMillis, SQL: sql}); err != nil {
		// Whoever is reading finds the connection closed under it.
		c.fail(fmt.Errorf("client: send: %w", err))
		return wire.Complete{}, nil, cl.err
	}
	if ctx.Done() != nil {
		// Ask the server to interrupt when ctx ends; the terminal answer
		// (code "canceled" or a result that beat the cancel) still arrives
		// on the normal path and is what ends the wait.
		stop := context.AfterFunc(ctx, func() { c.cancel(id, cl, ctx) })
		defer stop()
	}
	if reader || !<-cl.wake {
		c.read(id, cl)
	}
	if cl.err != nil {
		return wire.Complete{}, nil, cl.err
	}
	return cl.complete, cl.rows, nil
}

// send encodes one request frame — Ping and Cancel carry the id alone —
// and writes it.
func (c *Conn) send(t wire.Type, r wire.Request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b := wire.BeginFrame(c.wbuf[:0], t)
	if t == wire.TypeQuery || t == wire.TypeExec {
		b = wire.AppendRequest(b, r)
	} else {
		b = wire.AppendID(b, r.ID)
	}
	b, err := wire.EndFrame(b, 0)
	if err != nil {
		return err
	}
	c.wbuf = b
	_, err = c.conn.Write(b)
	return err
}

// cancel runs when a sent call's context ends: unless the answer is
// already in, it arms the cancelGrace backstop and sends the Cancel.
func (c *Conn) cancel(id uint32, cl *call, ctx context.Context) {
	c.mu.Lock()
	if c.pending[id] != cl {
		c.mu.Unlock()
		return
	}
	cl.canceled = true
	c.cancels++
	c.cancelCause = ctx.Err()
	_ = c.conn.SetReadDeadline(time.Now().Add(cancelGrace))
	c.mu.Unlock()
	// A failed write poisons nothing here: the reader meets the same
	// failure, or the backstop fires.
	_ = c.send(wire.TypeCancel, wire.Request{ID: id})
}

// read holds the reader role: it decodes response frames and routes each
// to its pending call by request id, until own — the holder's call, id
// ownID — has its terminal answer or the connection fails. Then the role
// passes to a caller still waiting, if there is one.
func (c *Conn) read(ownID uint32, own *call) {
	for done := false; !done; {
		t, p, err := c.in.Next()
		if err == nil {
			done, err = c.deliver(t, p, ownID, own)
		} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
			// The only read deadline is the cancelGrace backstop. One that
			// fired as the cancelled call's answer came in tore nothing:
			// read on.
			c.mu.Lock()
			armed, cause := c.cancels > 0, c.cancelCause
			c.mu.Unlock()
			if !armed {
				continue
			}
			err = fmt.Errorf("client: no answer %v after cancel: %w", cancelGrace, cause)
		} else {
			err = fmt.Errorf("client: receive: %w", err)
		}
		if err != nil {
			c.fail(err)
			break
		}
	}
	c.mu.Lock()
	var next *call
	for _, cl := range c.pending {
		next = cl
		break
	}
	if next == nil {
		c.reading = false
	} else {
		c.passes++
	}
	c.mu.Unlock()
	if next != nil {
		next.wake <- false
	}
}

// deliver routes one response frame. done reports that it was own's
// terminal answer; an error means the stream can no longer be trusted.
func (c *Conn) deliver(t wire.Type, p []byte, ownID uint32, own *call) (done bool, err error) {
	// The holder's own call needs no lookup: nobody else touches it.
	lookup := func(id uint32) *call {
		if id == ownID {
			return own
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pending[id]
	}
	switch t {
	case wire.TypePong:
		id, err := wire.DecodeID(p)
		if err != nil {
			return false, err
		}
		return c.finish(id, nil) == own, nil
	case wire.TypeRowDesc:
		d, err := wire.DecodeRowDesc(p)
		if err != nil {
			return false, err
		}
		if cl := lookup(d.ID); cl != nil {
			cl.rows.cols, cl.rows.strategy = d.Columns, d.Strategy
		}
	case wire.TypeRowBatch:
		// Checked now, decoded when the caller first asks for a row: a
		// caller that only forwards the rows never decodes them.
		id, n, tuples, err := wire.CheckRowBatch(p)
		if err != nil {
			return false, err
		}
		if cl := lookup(id); cl != nil {
			cl.rows.enc = append(cl.rows.enc, tuples...)
			cl.rows.n += n
		}
	case wire.TypeComplete:
		complete, err := wire.DecodeComplete(p)
		if err != nil {
			return false, err
		}
		if cl := lookup(complete.ID); cl != nil {
			cl.complete = complete
		}
		return c.finish(complete.ID, nil) == own, nil
	case wire.TypeError:
		e, err := wire.DecodeError(p)
		if err != nil {
			return false, err
		}
		serr := &ServerError{Code: e.Code, Message: e.Message}
		if cl := c.finish(e.ID, serr); cl != nil {
			return cl == own, nil
		}
		if e.Code == wire.CodeProtocol || e.Code == wire.CodeInternal {
			// A session-level failure: the server is about to drop the
			// connection, so every in-flight call fails with it.
			return false, serr
		}
	default:
		return false, fmt.Errorf("client: unexpected frame type %q", byte(t))
	}
	return false, nil
}

// finish retires the pending call id with its terminal answer, wakes its
// caller if that one is waiting, and returns it (nil when unknown).
func (c *Conn) finish(id uint32, err error) *call {
	c.mu.Lock()
	cl := c.pending[id]
	if cl != nil {
		delete(c.pending, id)
		cl.err = err
		if cl.canceled {
			if c.cancels--; c.cancels == 0 {
				_ = c.conn.SetReadDeadline(time.Time{})
			}
		}
	}
	c.mu.Unlock()
	if cl != nil && cl.wake != nil {
		cl.wake <- true
	}
	return cl
}

// fail poisons the connection after a transport-level failure — framing
// state is unknown, so no further request can trust the stream — and
// fails every in-flight call with the cause. Idempotent: the first
// failure wins.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	stranded := c.failLocked(err)
	c.mu.Unlock()
	c.release(stranded)
}

// failLocked is fail's half under mu; the caller passes what it returns
// to release once mu is dropped.
func (c *Conn) failLocked(err error) (stranded []*call) {
	if c.closed {
		return nil
	}
	c.closed = true
	c.cause = err
	for id, cl := range c.pending {
		cl.err = err
		stranded = append(stranded, cl)
		delete(c.pending, id)
	}
	close(c.dead)
	return stranded
}

// release closes the socket — a caller parked reading it returns — and
// wakes the callers of the calls a failure stranded.
func (c *Conn) release(stranded []*call) {
	_ = c.conn.Close()
	for _, cl := range stranded {
		if cl.wake != nil {
			cl.wake <- true
		}
	}
}

// closedErr reports why the connection is unusable.
func (c *Conn) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cause != nil {
		return c.cause
	}
	return ErrClosed
}

// Rows is a materialized query result, mirroring recdb.Rows: iterate
// with Next, read with Row or Scan. The tuples of an answer off the wire
// are kept as they arrived — checked, in the engine's encoding — and
// decoded on the first Next, Row, All or Scan, so code that only relays
// them (the sharding router) takes them from Encoded instead. Like an
// iterator, a Rows is for one goroutine at a time.
type Rows struct {
	cols     []string
	strategy string
	// enc holds the n tuples back to back until decode moves them to rows.
	enc     []byte
	n       int
	rows    []Row
	decoded bool
	pos     int
}

// NewRows builds a Rows from already-materialized tuples — for code
// that produces results client-side (the sharding router's merges, test
// fixtures) in the same shape the wire delivers them.
func NewRows(cols []string, strategy string, rows []Row) *Rows {
	return &Rows{cols: cols, strategy: strategy, rows: rows, n: len(rows), decoded: true, pos: -1}
}

// decode materializes the encoded tuples, once.
func (r *Rows) decode() {
	if r.decoded {
		return
	}
	r.decoded = true
	if r.n > 0 {
		r.rows = make([]Row, 0, r.n)
	}
	for rest := r.enc; len(rest) > 0; {
		row, used, err := types.DecodeRow(rest)
		if err != nil {
			break // unreachable: wire.CheckRowBatch accepted these bytes
		}
		r.rows = append(r.rows, row)
		rest = rest[used:]
	}
	r.enc = nil
}

// Encoded returns the rows still in the engine's tuple encoding, back to
// back as the server sent them, and their count — ok is false once they
// have been decoded, and for a Rows built by NewRows. A relay hands the
// bytes on as they are.
func (r *Rows) Encoded() (tuples []byte, n int, ok bool) {
	if r.decoded {
		return nil, 0, false
	}
	return r.enc, r.n, true
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Strategy reports the recommendation strategy the server's planner
// chose ("" for plain queries).
func (r *Rows) Strategy() string { return r.strategy }

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Next advances to the next row.
func (r *Rows) Next() bool {
	r.decode()
	if r.pos+1 >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row.
func (r *Rows) Row() Row {
	r.decode()
	if r.pos < 0 || r.pos >= len(r.rows) {
		return nil
	}
	return r.rows[r.pos]
}

// All returns every row.
func (r *Rows) All() []Row {
	r.decode()
	return r.rows
}

// Scan copies the current row into dest pointers (*int64, *float64,
// *string, *bool, or *types.Value), exactly as recdb.Rows.Scan does.
func (r *Rows) Scan(dest ...any) error {
	r.decode()
	if r.pos < 0 || r.pos >= len(r.rows) {
		return fmt.Errorf("client: Scan called without a current row")
	}
	return types.ScanRow(r.rows[r.pos], r.cols, dest...)
}
