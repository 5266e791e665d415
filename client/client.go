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
// carries a client-assigned id and a dedicated reader goroutine demuxes
// response frames back to their callers, so answers may interleave
// freely. A context with a deadline propagates to the server as the
// request's timeout; cancelling the context sends a Cancel frame so the
// server stops executing, and the call returns once the server
// acknowledges with its terminal answer.
package client

import (
	"context"
	"errors"
	"fmt"
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

// call is one in-flight request: the reader goroutine fills it in and
// closes done when the terminal answer arrives (or the connection dies).
type call struct {
	rows     *Rows
	complete wire.Complete
	err      error
	done     chan struct{}
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

	// wmu serializes frame writes onto the connection.
	wmu sync.Mutex

	// mu guards the demux state below.
	mu      sync.Mutex
	pending map[uint32]*call
	nextID  uint32
	closed  bool
	cause   error // the transport failure that poisoned the conn

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
	t, payload, _, err := wire.ReadFrame(nc, make([]byte, 512))
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
			slots:     make(chan struct{}, wire.PipelineDepth),
			pending:   make(map[uint32]*call),
			dead:      make(chan struct{}),
		}
		for i := 0; i < wire.PipelineDepth; i++ {
			c.slots <- struct{}{}
		}
		go c.readLoop()
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
func (c *Conn) Closed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
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
// slot, send the frame, then wait for the reader goroutine to deliver
// the request's terminal answer. When ctx carries a deadline it is
// forwarded as the server-side timeout; when ctx is cancelled a Cancel
// frame asks the server to interrupt, and the cycle still ends on the
// server's terminal answer (an unresponsive server is cut off by the
// cancelGrace backstop, which poisons the connection).
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

	cl := &call{rows: &Rows{pos: -1}, done: make(chan struct{})}
	c.mu.Lock()
	if c.closed {
		err := c.cause
		c.mu.Unlock()
		return wire.Complete{}, nil, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = cl
	c.mu.Unlock()

	var payload []byte
	if kind == wire.TypePing {
		payload = wire.AppendID(nil, id)
	} else {
		var timeoutMillis uint32
		if dl, ok := ctx.Deadline(); ok {
			if ms := time.Until(dl).Milliseconds(); ms > 0 {
				timeoutMillis = uint32(min(ms, int64(^uint32(0))))
			} else {
				timeoutMillis = 1
			}
		}
		payload = wire.AppendRequest(nil, wire.Request{ID: id, TimeoutMillis: timeoutMillis, SQL: sql})
	}
	if err := c.writeFrame(kind, payload); err != nil {
		err = fmt.Errorf("client: send: %w", err)
		c.fail(err)
		c.forget(id)
		return wire.Complete{}, nil, err
	}

	select {
	case <-cl.done:
	case <-ctx.Done():
		// Ask the server to interrupt; the terminal answer (code
		// "canceled" or a result that beat the cancel) still arrives on
		// the normal path and is what ends the wait.
		_ = c.writeFrame(wire.TypeCancel, wire.AppendID(nil, id))
		backstop := time.NewTimer(cancelGrace)
		defer backstop.Stop()
		select {
		case <-cl.done:
		case <-backstop.C:
			c.fail(fmt.Errorf("client: no answer %v after cancel: %w", cancelGrace, ctx.Err()))
			<-cl.done
		}
	}
	if cl.err != nil {
		return wire.Complete{}, nil, cl.err
	}
	return cl.complete, cl.rows, nil
}

// writeFrame serializes one frame onto the connection.
func (c *Conn) writeFrame(t wire.Type, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrame(c.conn, t, payload)
}

// readLoop is the demux goroutine: it decodes response frames and routes
// each to its pending call by request id until the connection ends.
func (c *Conn) readLoop() {
	buf := make([]byte, 4096)
	for {
		t, p, nbuf, err := wire.ReadFrame(c.conn, buf)
		buf = nbuf
		if err != nil {
			c.fail(fmt.Errorf("client: receive: %w", err))
			return
		}
		switch t {
		case wire.TypePong:
			id, err := wire.DecodeID(p)
			if err != nil {
				c.fail(err)
				return
			}
			c.finish(id, nil)
		case wire.TypeRowDesc:
			d, err := wire.DecodeRowDesc(p)
			if err != nil {
				c.fail(err)
				return
			}
			if cl := c.lookup(d.ID); cl != nil {
				cl.rows.cols, cl.rows.strategy = d.Columns, d.Strategy
			}
		case wire.TypeDataRow:
			id, row, err := wire.DecodeDataRow(p)
			if err != nil {
				c.fail(err)
				return
			}
			if cl := c.lookup(id); cl != nil {
				cl.rows.rows = append(cl.rows.rows, row)
			}
		case wire.TypeRowBatch:
			id, batch, err := wire.DecodeRowBatch(p)
			if err != nil {
				c.fail(err)
				return
			}
			if cl := c.lookup(id); cl != nil {
				cl.rows.rows = append(cl.rows.rows, batch...)
			}
		case wire.TypeComplete:
			done, err := wire.DecodeComplete(p)
			if err != nil {
				c.fail(err)
				return
			}
			if cl := c.lookup(done.ID); cl != nil {
				cl.complete = done
			}
			c.finish(done.ID, nil)
		case wire.TypeError:
			e, err := wire.DecodeError(p)
			if err != nil {
				c.fail(err)
				return
			}
			serr := &ServerError{Code: e.Code, Message: e.Message}
			if c.lookup(e.ID) != nil {
				c.finish(e.ID, serr)
			} else if e.Code == wire.CodeProtocol || e.Code == wire.CodeInternal {
				// A session-level failure: the server is about to drop the
				// connection, so every in-flight call fails with it.
				c.fail(serr)
				return
			}
		default:
			c.fail(fmt.Errorf("client: unexpected frame type %q", byte(t)))
			return
		}
	}
}

// lookup returns the pending call for id, nil when unknown.
func (c *Conn) lookup(id uint32) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending[id]
}

// finish retires a pending call with its terminal answer.
func (c *Conn) finish(id uint32, err error) {
	c.mu.Lock()
	cl := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if cl != nil {
		cl.err = err
		close(cl.done)
	}
}

// forget drops a call that never made it onto the wire.
func (c *Conn) forget(id uint32) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// fail poisons the connection after a transport-level failure — framing
// state is unknown, so no further request can trust the stream — and
// fails every in-flight call with the cause. Idempotent: the first
// failure wins.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cause = err
	stranded := c.pending
	c.pending = make(map[uint32]*call)
	close(c.dead)
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, cl := range stranded {
		cl.err = err
		close(cl.done)
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
// with Next, read with Row or Scan.
type Rows struct {
	cols     []string
	strategy string
	rows     []Row
	pos      int
}

// NewRows builds a Rows from already-materialized tuples — for code
// that produces results client-side (the sharding router's merges, test
// fixtures) in the same shape the wire delivers them.
func NewRows(cols []string, strategy string, rows []Row) *Rows {
	return &Rows{cols: cols, strategy: strategy, rows: rows, pos: -1}
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Strategy reports the recommendation strategy the server's planner
// chose ("" for plain queries).
func (r *Rows) Strategy() string { return r.strategy }

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.rows) }

// Next advances to the next row.
func (r *Rows) Next() bool {
	if r.pos+1 >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row.
func (r *Rows) Row() Row {
	if r.pos < 0 || r.pos >= len(r.rows) {
		return nil
	}
	return r.rows[r.pos]
}

// All returns every row.
func (r *Rows) All() []Row { return r.rows }

// Scan copies the current row into dest pointers (*int64, *float64,
// *string, *bool, or *types.Value), exactly as recdb.Rows.Scan does.
func (r *Rows) Scan(dest ...any) error {
	if r.pos < 0 || r.pos >= len(r.rows) {
		return fmt.Errorf("client: Scan called without a current row")
	}
	return types.ScanRow(r.rows[r.pos], r.cols, dest...)
}
