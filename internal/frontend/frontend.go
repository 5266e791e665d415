// Package frontend is the wire-protocol front end shared by recdb-server
// and recdb-router: everything between a TCP listener and "run this SQL".
// It owns the accept loop, connection admission, the handshake, the
// per-connection session (session.go), drain-then-close shutdown, the
// front-end instruments, and the metrics HTTP exporter. What executes a
// statement is a Backend — the embedded engine for recdb-server, the
// shard dispatcher for recdb-router — so a protocol fix or a speed-up of
// the serving hop lands here once. The package imports neither the
// engine nor the client, so the router binary links no engine.
//
// Each accepted connection becomes a session with a front-end-assigned
// id. The rule of the serving tier is that the goroutine holding a
// request finishes it: the goroutine that reads a Query/Exec frame
// executes it and streams the response frames back itself, with no
// hand-off to another goroutine while the session's statements stay
// short. Requests run one at a time in arrival order. A statement that
// is, or turns out to be, long has a second goroutine reading the
// connection beside it, so Ping and Cancel are answered while it runs
// (session.go has the rule, the overseer below the late case).
// Per-query timeouts and client Cancel frames travel as context
// cancellation into the backend, so an interrupted statement stops
// instead of running to completion for nobody.
//
// Backpressure is a hard connection limit: once MaxConns sessions are
// live, further connections are answered with a typed "busy" Error frame
// and closed, so an overload sheds load at accept time instead of
// queueing unbounded work. Shutdown drains: the listener closes, live
// statements run to completion, and queued-but-unstarted requests are
// answered "shutdown".
//
// A panic inside one session's statement is recovered, answered with an
// "internal" Error frame, and closes only that session; the process and
// its other sessions keep running.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recdb/internal/metrics"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// Options tunes a Frontend. The zero value serves with the defaults
// noted on each field.
type Options struct {
	// MaxConns caps live sessions; further connections are rejected with
	// a "busy" Error frame (0 = 64).
	MaxConns int
	// QueryTimeout bounds each statement's execution end to end. A
	// request's own TimeoutMillis tightens but never loosens it (0 = no
	// bound).
	QueryTimeout time.Duration
	// IdleTimeout closes a session with no request in flight and no
	// bytes arriving (0 = 5 minutes).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response flush (0 = 30 seconds).
	WriteTimeout time.Duration
	// Name is the server string sent in the Hello frame (default "recdb"
	// for recdb-server, "recdb-router" for recdb-router).
	Name string
	// Logf receives connection-level diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxConns <= 0 {
		o.MaxConns = 64
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// Backend is what executes statements on a Frontend's behalf.
type Backend interface {
	// Open returns the statement executor for one admitted connection.
	// Its Query and Exec are only ever called one at a time, each call
	// ordered after the one before it; Close runs once, after the last.
	Open() Session
}

// Session is one connection's view of the backend: the place
// per-connection state (an open transaction) lives.
type Session interface {
	// Query runs a single row-returning statement.
	Query(ctx context.Context, sql string) (Rows, error)
	// Exec runs a statement or semicolon-separated script and reports
	// the rows affected.
	Exec(ctx context.Context, sql string) (int64, error)
	// Close releases what a dropped client left behind.
	Close() error
}

// Rows iterates a Query answer. One that also has an Encoded method
// (client.Rows) hands its tuples over still encoded, and they are sent
// without being decoded.
type Rows interface {
	Columns() []string
	Strategy() string
	Next() bool
	Row() types.Row
}

// Error is a backend failure that carries its own wire code and message
// ("shard_down", a shard's passed-through verdict). Any other error is
// answered "timeout" or "canceled" when it wraps the matching context
// error and "query" otherwise.
type Error struct {
	Code    string
	Message string
}

// Error implements error.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// instruments is the front end's slice of the caller's registry.
type instruments struct {
	connsActive    *metrics.Gauge
	sessionsOpened *metrics.Counter
	sessionsClosed *metrics.Counter
	queries        *metrics.Counter
	queryNs        *metrics.Histogram
	bytesIn        *metrics.Counter
	bytesOut       *metrics.Counter
	rejectedBusy   *metrics.Counter
	panics         *metrics.Counter
}

func newInstruments(r *metrics.Registry, prefix string) instruments {
	return instruments{
		connsActive:    r.Gauge(prefix + ".conns_active"),
		sessionsOpened: r.Counter(prefix + ".sessions_opened"),
		sessionsClosed: r.Counter(prefix + ".sessions_closed"),
		queries:        r.Counter(prefix + ".queries"),
		queryNs:        r.Histogram(prefix + ".query_ns"),
		bytesIn:        r.Counter(prefix + ".bytes_in"),
		bytesOut:       r.Counter(prefix + ".bytes_out"),
		rejectedBusy:   r.Counter(prefix + ".rejected_busy"),
		panics:         r.Counter(prefix + ".panics"),
	}
}

// Frontend serves one Backend to network clients.
type Frontend struct {
	backend Backend
	opts    Options
	m       instruments
	prefix  string // instrument and error prefix: "server" or "shard"
	noun    string // what refusals call this process: "server" or "router"

	// testExecHook, when set before Serve, runs just before each
	// statement executes — tests use it to blow up a chosen statement
	// or hold one in flight at a chosen moment.
	testExecHook func(sql string)

	// handOvers counts read-token hand-overs, early and late, for tests.
	handOvers atomic.Int64

	mu         sync.Mutex
	ln         net.Listener
	sessions   map[uint64]*session
	nextSID    uint64
	draining   bool
	overseeing bool // the overseer goroutine is running

	wg sync.WaitGroup // live sessions
}

// New builds a Frontend over backend. Its instruments register in reg as
// prefix.conns_active … prefix.panics; noun names the process in the
// messages of its "busy" and "shutdown" refusals.
func New(backend Backend, reg *metrics.Registry, prefix, noun string, opts Options) *Frontend {
	return &Frontend{
		backend:  backend,
		opts:     opts.withDefaults(),
		m:        newInstruments(reg, prefix),
		prefix:   prefix,
		noun:     noun,
		sessions: make(map[uint64]*session),
	}
}

// Serve accepts connections on ln until it fails or Shutdown closes it.
// It returns nil after a Shutdown, the accept error otherwise.
func (f *Frontend) Serve(ln net.Listener) error {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		_ = ln.Close()
		return fmt.Errorf("%s: %w", f.prefix, ErrAlreadyShutDown)
	}
	f.ln = ln
	f.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			f.mu.Lock()
			draining := f.draining
			f.mu.Unlock()
			if draining {
				return nil
			}
			return fmt.Errorf("%s: accept: %w", f.prefix, err)
		}
		f.dispatch(conn)
	}
}

// Addr returns the listening address ("" before Serve).
func (f *Frontend) Addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// dispatch admits conn as a session or rejects it with a typed error
// frame when the front end is at capacity or draining.
func (f *Frontend) dispatch(conn net.Conn) {
	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		f.rejectConn(conn, wire.CodeShutdown, f.noun+" is shutting down")
		return
	}
	if len(f.sessions) >= f.opts.MaxConns {
		f.mu.Unlock()
		f.m.rejectedBusy.Inc()
		f.rejectConn(conn, wire.CodeBusy,
			fmt.Sprintf("%s at its %d-connection limit", f.noun, f.opts.MaxConns))
		return
	}
	f.nextSID++
	sess := newSession(f, f.nextSID, conn)
	f.sessions[sess.id] = sess
	oversee := !f.overseeing
	f.overseeing = true
	f.wg.Add(1)
	f.mu.Unlock()

	f.m.connsActive.Add(1)
	f.m.sessionsOpened.Inc()
	if oversee {
		go f.oversee()
	}
	go sess.start()
}

// ended is called by the last goroutine of a session.
func (f *Frontend) ended(sess *session) {
	f.mu.Lock()
	delete(f.sessions, sess.id)
	f.mu.Unlock()
	f.m.connsActive.Add(-1)
	f.m.sessionsClosed.Inc()
	f.wg.Done()
}

// oversee is the front end's one overseer goroutine: while any session
// is live it wakes every overseerTick and takes the read token from each
// statement that has run inline past inlineBudget (session.relieve). It
// exits when the last session ends; dispatch starts the next one.
func (f *Frontend) oversee() {
	tick := time.NewTicker(overseerTick)
	defer tick.Stop()
	var live []*session
	for now := range tick.C {
		live = live[:0]
		f.mu.Lock()
		for _, sess := range f.sessions {
			live = append(live, sess)
		}
		f.overseeing = len(live) > 0
		f.mu.Unlock()
		if len(live) == 0 {
			return
		}
		for _, sess := range live {
			sess.relieve(now)
		}
		clear(live) // an ended session is not kept alive from here
	}
}

// rejectConn answers a connection the front end will not admit, off the
// accept loop so a slow or dead peer cannot stall other accepts.
func (f *Frontend) rejectConn(conn net.Conn, code, msg string) {
	go func() {
		_ = conn.SetWriteDeadline(time.Now().Add(f.opts.WriteTimeout))
		_ = wire.WriteFrame(conn, wire.TypeError,
			wire.AppendError(nil, wire.ErrorMsg{Code: code, Message: msg}))
		_ = conn.Close()
	}()
}

// ErrAlreadyShutDown is returned by a second Shutdown, and by a Serve
// that follows one.
var ErrAlreadyShutDown = errors.New("already shut down")

// Shutdown drains the front end: stop accepting, let in-flight
// statements finish, answer queued-but-unstarted requests with
// "shutdown", and wait for every session to end. If ctx expires first,
// remaining connections are closed hard and ctx's error is returned —
// every session has still ended by then, so the caller may release the
// backend either way.
func (f *Frontend) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	already := f.draining
	f.draining = true
	ln := f.ln
	live := make([]*session, 0, len(f.sessions))
	for _, sess := range f.sessions {
		live = append(live, sess)
	}
	f.mu.Unlock()
	if already {
		return fmt.Errorf("%s: %w", f.prefix, ErrAlreadyShutDown)
	}
	if ln != nil {
		_ = ln.Close()
	}
	for _, sess := range live {
		sess.beginDrain()
	}

	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, sess := range live {
			sess.closeConn()
		}
		<-done
		return fmt.Errorf("%s: drain interrupted: %w", f.prefix, ctx.Err())
	}
}

func (f *Frontend) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}
