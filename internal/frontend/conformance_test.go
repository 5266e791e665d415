package frontend_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/frontend"
	"recdb/internal/metrics"
	"recdb/internal/server"
	"recdb/internal/shard"
	"recdb/internal/wire"
)

// The protocol conformance suite: every behaviour of the wire front end
// a client can observe, checked once against each backend the front end
// serves — the embedded engine (recdb-server) and a router over two
// real servers (recdb-router).

// sut is one front end under test, already serving on loopback.
type sut struct {
	addr     string
	prefix   string // instrument prefix: "server" or "shard"
	noun     string // "server" or "router"
	front    *frontend.Frontend
	metrics  func() metrics.Snapshot
	shutdown func(context.Context) error
}

type starter func(t *testing.T, opts frontend.Options, hook func(sql string)) *sut

var backends = []struct {
	name  string
	start starter
}{
	{"engine", startEngine},
	{"router", startRouter},
}

// eachBackend runs fn as a subtest per backend.
func eachBackend(t *testing.T, fn func(t *testing.T, start starter)) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { fn(t, b.start) })
	}
}

// serve runs s on a fresh loopback listener until the test ends.
func serve(t *testing.T, s interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
	Addr() string
}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	for s.Addr() == "" { // a Shutdown that beat Serve to the listener would fail it
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // a test may have shut it down already
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func startEngine(t *testing.T, opts frontend.Options, hook func(string)) *sut {
	t.Helper()
	db := recdb.Open()
	t.Cleanup(func() { db.Close() })
	srv := server.New(db, opts)
	frontend.SetExecHookForTest(srv.Frontend, hook)
	return &sut{
		addr:     serve(t, srv),
		prefix:   "server",
		noun:     "server",
		front:    srv.Frontend,
		metrics:  func() metrics.Snapshot { return db.Engine().Metrics().Snapshot() },
		shutdown: srv.Shutdown,
	}
}

func startRouter(t *testing.T, opts frontend.Options, hook func(string)) *sut {
	t.Helper()
	shards := make([]string, 2)
	for i := range shards {
		db := recdb.Open()
		t.Cleanup(func() { db.Close() })
		shards[i] = serve(t, server.New(db, server.Options{}))
	}
	r, err := shard.New(shard.Options{Shards: shards, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	frontend.SetExecHookForTest(r.Frontend, hook)
	return &sut{
		addr:     serve(t, r),
		prefix:   "shard",
		noun:     "router",
		front:    r.Frontend,
		metrics:  r.Metrics,
		shutdown: r.Shutdown,
	}
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitClosed waits for the front end to drop c's connection.
func waitClosed(t *testing.T, c *client.Conn, otherwise string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !c.Closed(); {
		if time.Now().After(deadline) {
			t.Fatal(otherwise)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seed creates a ratings table of 16 users through the front end itself
// (so the router splits it across its shards) and returns a client.
func seed(t *testing.T, s *sut) *client.Conn {
	t.Helper()
	c := dial(t, s.addr)
	ctx := context.Background()
	if _, err := c.Exec(ctx, `CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for u := 1; u <= 16; u++ {
		for i := 1; i <= 12; i++ {
			if (u+i)%3 != 0 {
				vals = append(vals, fmt.Sprintf("(%d, %d, %d.0)", u, i, (u*i)%5+1))
			}
		}
	}
	if _, err := c.Exec(ctx, `INSERT INTO ratings VALUES `+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	return c
}

// slowQuery is a cross join sized to run long enough to interrupt: the
// seeded table to the fourth power is tens of millions of tuples through
// nested-loop joins even on one shard's half, far past the test
// timeouts. The router scatters it to both shards.
const slowQuery = `SELECT A.uid FROM ratings A, ratings B, ratings C, ratings D WHERE A.uid > B.uid AND B.iid > C.iid AND C.uid > D.uid AND A.ratingval > 4.0`

func serverCode(err error) string {
	var se *client.ServerError
	if errors.As(err, &se) {
		return se.Code
	}
	return ""
}

func TestPerRequestTimeout(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		c := seed(t, start(t, frontend.Options{}, nil))
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		_, err := c.Query(ctx, slowQuery)
		if code := serverCode(err); code != wire.CodeTimeout && code != wire.CodeCanceled {
			t.Fatalf("timed-out query returned %v, want timeout/canceled ServerError", err)
		}
		// The session survives and serves the next statement.
		if err := c.Ping(context.Background()); err != nil {
			t.Fatalf("ping after timeout: %v", err)
		}
	})
}

func TestServerSideQueryTimeout(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		c := seed(t, start(t, frontend.Options{QueryTimeout: 100 * time.Millisecond}, nil))
		_, err := c.Query(context.Background(), slowQuery)
		if code := serverCode(err); code != wire.CodeTimeout {
			t.Fatalf("server-side timeout returned %v, want %q", err, wire.CodeTimeout)
		}
	})
}

func TestCancelInFlightQuery(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		c := seed(t, start(t, frontend.Options{}, nil))
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		begin := time.Now()
		_, err := c.Query(ctx, slowQuery)
		if code := serverCode(err); code != wire.CodeCanceled {
			t.Fatalf("canceled query returned %v, want %q", err, wire.CodeCanceled)
		}
		if elapsed := time.Since(begin); elapsed > 10*time.Second {
			t.Fatalf("cancel took %v; the scan ran to completion", elapsed)
		}
		if err := c.Ping(context.Background()); err != nil {
			t.Fatalf("ping after cancel: %v", err)
		}
	})
}

func TestPanicIsolation(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		s := start(t, frontend.Options{}, func(sql string) {
			if strings.Contains(sql, "boom") {
				panic("kaboom")
			}
		})
		victim, bystander := seed(t, s), dial(t, s.addr)

		_, err := victim.Query(context.Background(), `SELECT boom FROM ratings`)
		if code := serverCode(err); code != wire.CodeInternal {
			t.Fatalf("panicked statement returned %v, want %q", err, wire.CodeInternal)
		}
		// The panicking session is closed...
		waitClosed(t, victim, "victim session survived a panic")
		// ...but the process and its other sessions keep working.
		if err := bystander.Ping(context.Background()); err != nil {
			t.Fatalf("bystander session broken: %v", err)
		}
		if got, _ := s.metrics().Get(s.prefix + ".panics"); got != 1 {
			t.Fatalf("%s.panics = %d, want 1", s.prefix, got)
		}
	})
}

func TestMaxConnsBusy(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		s := start(t, frontend.Options{MaxConns: 2}, nil)
		dial(t, s.addr)
		c2 := dial(t, s.addr)

		// The third connection must be refused with a typed busy error.
		_, err := client.Dial(s.addr)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeBusy {
			t.Fatalf("third dial returned %v, want a %q rejection", err, wire.CodeBusy)
		}
		if want := s.noun + " at its 2-connection limit"; se.Message != want {
			t.Fatalf("rejection message %q, want %q", se.Message, want)
		}
		if got, _ := s.metrics().Get(s.prefix + ".rejected_busy"); got != 1 {
			t.Fatalf("%s.rejected_busy = %d, want 1", s.prefix, got)
		}

		// Freeing a slot readmits new clients (once the session has ended).
		_ = c2.Close()
		deadline := time.Now().Add(5 * time.Second)
		for {
			c4, err := client.Dial(s.addr)
			if err == nil {
				_ = c4.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("dial after free never admitted: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestIdleReaping pins both halves of the idle timeout: it never fires
// on a session whose statement is still running, and it does close a
// session with nothing in flight.
func TestIdleReaping(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		const idle = 100 * time.Millisecond
		s := start(t, frontend.Options{IdleTimeout: idle}, func(sql string) {
			if strings.Contains(sql, "uid = 7") {
				time.Sleep(4 * idle) // the idle deadline passes several times
			}
		})
		c := seed(t, s)
		rows, err := c.Query(context.Background(), `SELECT iid FROM ratings WHERE uid = 7`)
		if err != nil {
			t.Fatalf("statement outliving the idle timeout: %v", err)
		}
		if rows.Len() == 0 {
			t.Fatal("statement outliving the idle timeout returned no rows")
		}
		waitClosed(t, c, "idle session never reaped")
	})
}

// rawConn speaks the wire protocol without the client, so a test can
// send what the client never would and see every frame that comes back.
type rawConn struct {
	t *testing.T
	net.Conn
}

func dialRaw(t *testing.T, addr string) rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return rawConn{t, conn}
}

// handshake sends the magic and consumes the Hello.
func (c rawConn) handshake() {
	c.t.Helper()
	if _, err := c.Write([]byte(wire.Magic)); err != nil {
		c.t.Fatal(err)
	}
	if typ, _, err := c.read(); err != nil || typ != wire.TypeHello {
		c.t.Fatalf("handshake: type %q err %v", byte(typ), err)
	}
}

func (c rawConn) send(kind wire.Type, id uint32, sql string) {
	c.t.Helper()
	if err := wire.WriteFrame(c, kind, wire.AppendRequest(nil, wire.Request{ID: id, SQL: sql})); err != nil {
		c.t.Fatal(err)
	}
}

func (c rawConn) read() (wire.Type, []byte, error) {
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := wire.ReadFrame(c, nil)
	return typ, payload, err
}

// wantProtocolError asserts the next frame is a "protocol" Error and
// that the front end then drops the connection.
func (c rawConn) wantProtocolError() {
	c.t.Helper()
	typ, payload, err := c.read()
	if err != nil || typ != wire.TypeError {
		c.t.Fatalf("frame type %q err %v, want Error frame", byte(typ), err)
	}
	if e, err := wire.DecodeError(payload); err != nil || e.Code != wire.CodeProtocol {
		c.t.Fatalf("error = %+v (%v), want code %q", e, err, wire.CodeProtocol)
	}
	if _, _, err := c.read(); err == nil {
		c.t.Fatal("connection survived a protocol fault")
	}
}

// terminals reads frames until n requests have had their terminal
// answer, returning each request's verdict: "ok" for CommandComplete,
// the error code otherwise.
func (c rawConn) terminals(n int) map[uint32]string {
	c.t.Helper()
	out := make(map[uint32]string)
	for len(out) < n {
		typ, payload, err := c.read()
		if err != nil {
			c.t.Fatalf("after %d of %d answers: %v", len(out), n, err)
		}
		switch typ {
		case wire.TypeComplete:
			done, err := wire.DecodeComplete(payload)
			if err != nil {
				c.t.Fatal(err)
			}
			out[done.ID] = "ok"
		case wire.TypeError:
			e, err := wire.DecodeError(payload)
			if err != nil {
				c.t.Fatal(err)
			}
			out[e.ID] = e.Code
		}
	}
	return out
}

// TestRawProtocolRejections drives the TCP surface without the client:
// a bad handshake and malformed frames get typed protocol errors, then
// the connection is dropped.
func TestRawProtocolRejections(t *testing.T) {
	ping := func() []byte {
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, wire.TypePing, wire.AppendID(nil, 7)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name      string
		handshake bool
		bytes     func() []byte
	}{
		{"bad magic", false, func() []byte { return []byte("HTTP/1\n") }},
		{"bad crc", true, func() []byte {
			raw := ping()
			raw[5] ^= 0xff
			return raw
		}},
		{"oversize frame", true, func() []byte {
			header := binary.LittleEndian.AppendUint32(nil, wire.MaxFrameSize+1)
			return append(header, 0, 0, 0, 0) // length, then a CRC never checked
		}},
		{"unexpected frame type", true, func() []byte {
			var buf bytes.Buffer
			// A response frame type is not a request.
			if err := wire.WriteFrame(&buf, wire.TypePong, wire.AppendID(nil, 7)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
	eachBackend(t, func(t *testing.T, start starter) {
		s := start(t, frontend.Options{}, nil)
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				c := dialRaw(t, s.addr)
				if tc.handshake {
					c.handshake()
				}
				if _, err := c.Write(tc.bytes()); err != nil {
					t.Fatal(err)
				}
				c.wantProtocolError()
			})
		}
		// None of that disturbed the front end.
		if err := dial(t, s.addr).Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// held returns an exec hook that parks the one statement containing
// marker until release is closed, signalling inFlight when it arrives.
func held(marker string) (hook func(string), inFlight, release chan struct{}) {
	inFlight, release = make(chan struct{}), make(chan struct{})
	return func(sql string) {
		if strings.Contains(sql, marker) {
			close(inFlight)
			<-release
		}
	}, inFlight, release
}

// TestPipelineDepth pins the bound at its documented value: with one
// request executing and wire.PipelineDepth-1 queued behind it, exactly
// the next one is answered "busy" and every admitted one still runs.
func TestPipelineDepth(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		hook, inFlight, release := held("iid > 0")
		s := start(t, frontend.Options{}, hook)
		seed(t, s)
		c := dialRaw(t, s.addr)
		c.handshake()

		const n = wire.PipelineDepth + 1
		c.send(wire.TypeQuery, 1, `SELECT iid FROM ratings WHERE uid = 1 AND iid > 0`)
		for id := uint32(2); id <= n; id++ {
			c.send(wire.TypeQuery, id, fmt.Sprintf(`SELECT iid FROM ratings WHERE uid = %d`, id))
		}
		<-inFlight
		// The refusal comes from the reader while request 1 is still held.
		if got := c.terminals(1); got[n] != wire.CodeBusy {
			t.Fatalf("first answer with %d requests unanswered: %v, want request %d busy", n, got, n)
		}
		close(release)
		for id, verdict := range c.terminals(wire.PipelineDepth) {
			if verdict != "ok" {
				t.Errorf("admitted request %d answered %q", id, verdict)
			}
		}
	})
}

// TestDrain pins the drain contract on the wire: the statement in flight
// when Shutdown arrives completes with its full answer, requests queued
// behind it are answered "shutdown" unexecuted, and then the connection
// closes.
func TestDrain(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		hook, inFlight, release := held("iid > 0")
		s := start(t, frontend.Options{}, hook)
		seed(t, s)
		c := dialRaw(t, s.addr)
		c.handshake()
		c.send(wire.TypeQuery, 1, `SELECT iid FROM ratings WHERE uid = 1 AND iid > 0`)
		c.send(wire.TypeQuery, 2, `SELECT iid FROM ratings WHERE uid = 2`)
		c.send(wire.TypeExec, 3, `INSERT INTO ratings VALUES (2, 99, 1.0)`)
		<-inFlight

		shutdownErr := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownErr <- s.shutdown(ctx)
		}()
		// Probe until the session has begun draining: from then on the
		// reader refuses a new request at once, while request 1 is held
		// (a request it had not yet read when the drain began likewise).
		verdicts := make(map[uint32]string)
		id := uint32(4)
		for ; verdicts[id-1] == "" && id < wire.PipelineDepth; id++ {
			c.send(wire.TypeQuery, id, `SELECT iid FROM ratings WHERE uid = 3`)
			for {
				_ = c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				typ, payload, _, err := wire.ReadFrame(c, nil)
				if err != nil {
					break // queued behind request 1: the drain has not reached this session yet
				}
				e, derr := wire.DecodeError(payload)
				if typ != wire.TypeError || derr != nil || e.Code != wire.CodeShutdown ||
					e.Message != s.noun+" is shutting down" {
					t.Fatalf("while request 1 is held: frame %q %+v, want a shutdown refusal", byte(typ), e)
				}
				verdicts[e.ID] = e.Code
			}
		}
		if verdicts[id-1] == "" {
			t.Fatal("session never began draining")
		}
		close(release)

		// Request 1's answer arrives whole, every request behind it is
		// refused, and the front end closes the connection.
		typ, payload, err := c.read()
		if err != nil || typ != wire.TypeRowDesc {
			t.Fatalf("in-flight answer: frame %q err %v, want RowDescription", byte(typ), err)
		}
		if d, err := wire.DecodeRowDesc(payload); err != nil || d.ID != 1 {
			t.Fatalf("row description %+v (%v), want request 1's", d, err)
		}
		for req, verdict := range c.terminals(int(id) - 1 - len(verdicts)) {
			verdicts[req] = verdict
		}
		for req := uint32(1); req < id; req++ {
			if want := map[bool]string{true: "ok", false: wire.CodeShutdown}[req == 1]; verdicts[req] != want {
				t.Errorf("request %d answered %q, want %q", req, verdicts[req], want)
			}
		}
		if _, _, err := c.read(); !errors.Is(err, io.EOF) {
			t.Fatalf("after the last answer: %v, want EOF", err)
		}
		if err := <-shutdownErr; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		// New connections after the drain are refused.
		if _, err := client.Dial(s.addr); err == nil {
			t.Fatal("dial after shutdown succeeded")
		}
	})
}

// The hand-over tests. A session runs a statement on the goroutine that
// read it, and keeps the connection's read token there while the
// statement before it was short; otherwise — a session's first statement
// included — a second goroutine takes the token before the statement
// starts, and the overseer hands it over late for an inline statement
// that overran. Every behaviour above must hold on all three paths, so
// the tests below run on a fresh session (early hand-over) and on one
// warmed with short statements (inline, then late hand-over).

// warm runs n short statements one after the other on c, ids from..from+n-1,
// so the session's next statement starts inline.
func (c rawConn) warm(from uint32, n int) {
	c.t.Helper()
	for id := from; id < from+uint32(n); id++ {
		c.send(wire.TypeQuery, id, `SELECT iid FROM ratings WHERE uid = 3`)
		if got := c.terminals(1); got[id] != "ok" {
			c.t.Fatalf("warm-up statement %d answered %v", id, got)
		}
	}
}

// eachSessionAge runs fn per backend on a fresh session and on a warmed
// one; fn gets the first unused request id.
func eachSessionAge(t *testing.T, marker string, fn func(t *testing.T, s *sut, c rawConn, id uint32, inFlight, release chan struct{})) {
	eachBackend(t, func(t *testing.T, start starter) {
		for _, age := range []struct {
			name string
			warm int
		}{{"fresh", 0}, {"warmed", 20}} {
			t.Run(age.name, func(t *testing.T) {
				hook, inFlight, release := held(marker)
				s := start(t, frontend.Options{}, hook)
				seed(t, s)
				c := dialRaw(t, s.addr)
				c.handshake()
				c.warm(1, age.warm)
				fn(t, s, c, uint32(age.warm)+1, inFlight, release)
			})
		}
	})
}

func (c rawConn) sendID(kind wire.Type, id uint32) {
	c.t.Helper()
	if err := wire.WriteFrame(c, kind, wire.AppendID(nil, id)); err != nil {
		c.t.Fatal(err)
	}
}

// wantPong asserts the next frame is the Pong for id.
func (c rawConn) wantPong(id uint32) {
	c.t.Helper()
	typ, payload, err := c.read()
	if err != nil || typ != wire.TypePong {
		c.t.Fatalf("frame type %q err %v, want Pong", byte(typ), err)
	}
	if got, err := wire.DecodeID(payload); err != nil || got != id {
		c.t.Fatalf("pong for %d (%v), want %d", got, err, id)
	}
}

// TestPingAndCancelOvertakeHeldStatement: while a statement is held in
// the exec hook a Ping is answered, and a Cancel reaches the statement —
// the Ping sent after the Cancel is answered before the statement is let
// go, so the Cancel was not waiting behind it — which then ends
// "canceled".
func TestPingAndCancelOvertakeHeldStatement(t *testing.T) {
	eachSessionAge(t, "C.uid > D.uid", func(t *testing.T, s *sut, c rawConn, id uint32, inFlight, release chan struct{}) {
		c.send(wire.TypeQuery, id, slowQuery)
		<-inFlight
		c.sendID(wire.TypePing, id+1)
		c.wantPong(id + 1)
		c.sendID(wire.TypeCancel, id)
		c.sendID(wire.TypePing, id+2)
		c.wantPong(id + 2)
		close(release)
		if got := c.terminals(1); got[id] != wire.CodeCanceled {
			t.Fatalf("held statement answered %v, want %q", got, wire.CodeCanceled)
		}
		// The session is intact.
		c.warm(id+3, 2)
	})
}

// TestPipelineBehindHeldStatement: with a statement held and the rest of
// the pipeline sent behind it, the request past wire.PipelineDepth draws
// "busy" while the statement is still held, and the admitted ones are
// then answered, all of them, in the order they were sent.
func TestPipelineBehindHeldStatement(t *testing.T) {
	eachSessionAge(t, "iid > 0", func(t *testing.T, s *sut, c rawConn, id uint32, inFlight, release chan struct{}) {
		last := id + wire.PipelineDepth // one too many
		c.send(wire.TypeQuery, id, `SELECT iid FROM ratings WHERE uid = 1 AND iid > 0`)
		for next := id + 1; next <= last; next++ {
			c.send(wire.TypeExec, next, fmt.Sprintf(`INSERT INTO ratings VALUES (2, %d, 1.0)`, 100+next))
		}
		<-inFlight
		if got := c.terminals(1); got[last] != wire.CodeBusy {
			t.Fatalf("first answer with %d requests unanswered: %v, want request %d busy", wire.PipelineDepth+1, got, last)
		}
		close(release)
		for want := id; want < last; want++ {
			// terminals(1) stops at the first terminal answer, so this
			// also pins the order.
			if got := c.terminals(1); got[want] != "ok" {
				t.Fatalf("answer %d of the pipeline: %v, want request %d ok", want-id+1, got, want)
			}
		}
	})
}

// TestShutdownDuringStatement: a Shutdown that arrives while a session is
// executing — inline on the warmed session, unless the box is slow enough
// for the overseer to step in first — lets the statement finish, answers
// it in full and closes the connection.
func TestShutdownDuringStatement(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		for _, warm := range []int{0, 20} {
			inFlight := make(chan struct{})
			s := start(t, frontend.Options{}, func(sql string) {
				if strings.Contains(sql, "iid > 0") {
					close(inFlight)
					time.Sleep(frontend.InlineBudgetForTest / 2)
				}
			})
			seed(t, s)
			c := dialRaw(t, s.addr)
			c.handshake()
			c.warm(1, warm)
			before := frontend.HandOversForTest(s.front)
			c.send(wire.TypeQuery, 100, `SELECT iid FROM ratings WHERE uid = 1 AND iid > 0`)
			<-inFlight
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err := s.shutdown(ctx)
			cancel()
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			typ, payload, err := c.read()
			if err != nil || typ != wire.TypeRowDesc {
				t.Fatalf("in-flight answer: frame %q err %v, want RowDescription", byte(typ), err)
			}
			if d, err := wire.DecodeRowDesc(payload); err != nil || d.ID != 100 {
				t.Fatalf("row description %+v (%v), want request 100's", d, err)
			}
			if got := c.terminals(1); got[100] != "ok" {
				t.Fatalf("in-flight statement answered %v", got)
			}
			if _, _, err := c.read(); !errors.Is(err, io.EOF) {
				t.Fatalf("after the answer: %v, want EOF", err)
			}
			if moved := frontend.HandOversForTest(s.front) - before; warm > 0 && moved != 0 {
				t.Logf("the statement did not stay inline (%d hand-overs): slow box", moved)
			}
		}
	})
}

// TestTokenHandOvers counts read-token hand-overs: none while a session's
// statements stay short, and exactly one for a statement that is held —
// late on a warmed session, before it starts on a fresh one.
func TestTokenHandOvers(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		// Each statement held announces itself with the channel that lets
		// it go. A failed check ends the test with a statement still held
		// or still announcing itself; the cleanup, which runs before the
		// server's Shutdown, lets every such statement go, so the failure
		// is reported at once instead of Shutdown waiting for it.
		holds := make(chan chan struct{})
		ended := make(chan struct{})
		s := start(t, frontend.Options{}, func(sql string) {
			if strings.Contains(sql, "iid > 0") {
				release := make(chan struct{})
				select {
				case holds <- release:
				case <-ended:
					return
				}
				select {
				case <-release:
				case <-ended:
				}
			}
		})
		t.Cleanup(func() { close(ended) })
		handOvers := func() int64 { return frontend.HandOversForTest(s.front) }
		ctx := context.Background()
		const short, long = `SELECT iid FROM ratings WHERE uid = 3`, `SELECT iid FROM ratings WHERE uid = 1 AND iid > 0`
		query := func(c *client.Conn, sql string) time.Duration {
			t.Helper()
			begin := time.Now()
			if _, err := c.Query(ctx, sql); err != nil {
				t.Error(err)
			}
			return time.Since(begin)
		}
		// hold runs the long statement on c and checks, while it is held
		// and again once it is answered, that it cost exactly one
		// hand-over.
		hold := func(c *client.Conn) {
			t.Helper()
			before := handOvers()
			done := make(chan struct{})
			go func() {
				defer close(done)
				query(c, long)
			}()
			release := <-holds
			for deadline := time.Now().Add(5 * time.Second); handOvers() == before; {
				if time.Now().After(deadline) {
					t.Fatal("nobody took the read token from a held statement")
				}
				time.Sleep(time.Millisecond)
			}
			if err := c.Ping(ctx); err != nil { // answered by the new token holder
				t.Fatal(err)
			}
			time.Sleep(5 * frontend.InlineBudgetForTest) // several overseer ticks
			close(release)
			<-done
			if moved := handOvers() - before; moved != 1 {
				t.Fatalf("%d hand-overs for one held statement, want 1", moved)
			}
		}

		c := seed(t, s)
		query(c, short) // the INSERT before it may have been long
		before := handOvers()
		// A statement the client saw take less than the budget took less
		// than that on the server, so it cannot have cost a hand-over. One
		// that did overrun may have cost two: its own, late, and the early
		// one of the statement after it.
		overran := int64(0)
		for i := 0; i < 1000; i++ {
			if query(c, short) >= frontend.InlineBudgetForTest {
				overran++
			}
		}
		if moved := handOvers() - before; moved > 2*overran {
			t.Fatalf("%d hand-overs across 1000 sequential short statements, %d of which overran the budget", moved, overran)
		}

		// Three short statements in a row leave the session reading and
		// executing on one goroutine, whatever came before them.
		for inARow := 0; inARow < 3; inARow++ {
			if query(c, short) >= frontend.InlineBudgetForTest {
				inARow = -1
			}
		}
		hold(c)               // late: the statement started inline
		hold(dial(t, s.addr)) // early: a session's first statement
	})
}

// frontendInstruments is the front end's catalogue under either prefix.
var frontendInstruments = []string{
	"bytes_in", "bytes_out", "conns_active", "panics", "queries", "query_ns",
	"rejected_busy", "sessions_closed", "sessions_opened",
}

// TestMetricCatalogue pins every instrument name the serving tier
// registers: benchmark/ and operators scrape them, so a rename is a
// breaking change and a new name is added here on purpose.
func TestMetricCatalogue(t *testing.T) {
	want := map[string][]string{"engine": nil, "router": {
		"shard.denied", "shard.down_errors", "shard.fanout", "shard.retries",
		"shard.routed_user", "shard.scatter", "shard.split_inserts",
	}}
	for _, name := range frontendInstruments {
		want["engine"] = append(want["engine"], "server."+name)
		want["router"] = append(want["router"], "shard."+name)
	}
	for i := 0; i < 2; i++ {
		for _, name := range []string{"fanout", "health_transitions", "pool_conns", "retries", "routed", "up"} {
			want["router"] = append(want["router"], fmt.Sprintf("shard.%d.%s", i, name))
		}
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			s := b.start(t, frontend.Options{}, nil)
			snap := s.metrics()
			var got []string
			for _, v := range append(snap.Counters, snap.Gauges...) {
				got = append(got, v.Name)
			}
			for _, h := range snap.Histograms {
				got = append(got, h.Name)
			}
			mine := got[:0]
			for _, name := range got {
				if strings.HasPrefix(name, s.prefix+".") {
					mine = append(mine, name)
				}
			}
			sort.Strings(mine)
			sort.Strings(want[b.name])
			if got, want := strings.Join(mine, "\n"), strings.Join(want[b.name], "\n"); got != want {
				t.Fatalf("%s.* instruments:\n%s\nwant:\n%s", s.prefix, got, want)
			}
		})
	}
}

func TestFrontendMetricsRecorded(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		s := start(t, frontend.Options{}, nil)
		c := seed(t, s)
		if _, err := c.Query(context.Background(), `SELECT uid FROM ratings WHERE uid = 1`); err != nil {
			t.Fatal(err)
		}
		snap := s.metrics()
		for _, name := range []string{"sessions_opened", "conns_active", "queries", "bytes_in", "bytes_out"} {
			if v, ok := snap.Get(s.prefix + "." + name); !ok || v <= 0 {
				t.Errorf("%s.%s = %d (present=%v), want > 0", s.prefix, name, v, ok)
			}
		}
		for _, h := range snap.Histograms {
			if h.Name == s.prefix+".query_ns" && h.Count > 0 {
				return
			}
		}
		t.Errorf("%s.query_ns histogram recorded nothing", s.prefix)
	})
}

// TestMetricsHTTPEndpoints scrapes the one exporter both binaries mount,
// over each one's registry.
func TestMetricsHTTPEndpoints(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		s := start(t, frontend.Options{}, nil)
		addr, stop, err := frontend.ServeMetrics(s.metrics, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = stop() }()

		get := func(path string) string {
			t.Helper()
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = resp.Body.Close() }()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %s", path, resp.Status)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return string(body)
		}
		name := s.prefix + ".queries"
		if text := get("/metrics"); !strings.Contains(text, name) {
			t.Fatalf("/metrics text missing %s:\n%s", name, text)
		}
		for _, path := range []string{"/metrics.json", "/debug/vars"} {
			body := get(path)
			if !strings.Contains(body, `"`+name+`"`) || !strings.HasPrefix(body, "{") {
				t.Fatalf("%s is not the expected JSON:\n%s", path, body)
			}
		}
		// The same listener serves the runtime's profiles: the index, a
		// named profile through it, and two of the endpoints that are
		// registered beside it.
		for path, want := range map[string]string{
			"/debug/pprof/":                  "goroutine",
			"/debug/pprof/goroutine?debug=1": "goroutine profile: total",
			"/debug/pprof/cmdline":           "frontend.test",
			"/debug/pprof/symbol":            "num_symbols",
		} {
			if body := get(path); !strings.Contains(body, want) {
				t.Fatalf("%s does not mention %q:\n%s", path, want, body)
			}
		}
	})
}

// TestOversizedRowAnswered: a result row too large for one frame (a
// 3 000-byte value projected 6 000 times, ~18 MB against the 16 MiB frame
// bound) is answered at once with a typed "query" error that names the
// bound, and the same connection serves the next statement.
func TestOversizedRowAnswered(t *testing.T) {
	eachBackend(t, func(t *testing.T, start starter) {
		c := dial(t, start(t, frontend.Options{}, nil).addr)
		ctx := context.Background()
		if _, err := c.Exec(ctx, `CREATE TABLE wide (uid INT, s TEXT)`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(ctx, `INSERT INTO wide VALUES (1, '`+strings.Repeat("x", 3000)+`')`); err != nil {
			t.Fatal(err)
		}
		qctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		defer cancel()
		_, err := c.Query(qctx, `SELECT `+strings.Repeat("s, ", 5999)+`s FROM wide WHERE uid = 1`)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeQuery ||
			!strings.Contains(se.Message, fmt.Sprintf("exceeds the %d-byte bound", wire.MaxFrameSize)) {
			t.Fatalf("oversized row: %v, want a %q error naming the %d-byte bound", err, wire.CodeQuery, wire.MaxFrameSize)
		}
		rows, err := c.Query(ctx, `SELECT uid FROM wide WHERE uid = 1`)
		if err != nil {
			t.Fatalf("the statement after the oversized row: %v", err)
		}
		if rows.Len() != 1 {
			t.Fatalf("the statement after the oversized row returned %d rows, want 1", rows.Len())
		}
	})
}
