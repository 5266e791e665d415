package shard

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/metrics"
	"recdb/internal/server"
)

// busy puts one long statement in flight on c and returns what ends it.
func busy(t *testing.T, c *client.Conn) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	before := c.InFlight()
	go func() {
		defer close(done)
		_, _ = c.Query(ctx, `SELECT A.v FROM kv A, kv B, kv C, kv D WHERE A.v > D.v`)
	}()
	for c.InFlight() == before {
		time.Sleep(time.Millisecond)
	}
	return func() { cancel(); <-done }
}

// TestPoolPicksIdleThenDialsThenShares pins get's order of preference: a
// connection with nothing in flight, else an empty slot dialed, else the
// least loaded connection shared; and a connection the shard hung up on
// while it sat idle is replaced before anything is written to it.
func TestPoolPicksIdleThenDialsThenShares(t *testing.T) {
	db := recdb.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE kv (uid INT, v INT)`)
	for i := 0; i < 48; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d)`, i, i))
	}
	srv := server.New(db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	defer shutdown()

	reg := metrics.NewRegistry()
	s := newShardState(0, ln.Addr().String(), 2, newShardMetrics(reg, 0))
	defer s.close()
	ctx := context.Background()
	get := func() *client.Conn {
		t.Helper()
		c, err := s.get(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	conns := func() int64 { v, _ := reg.Snapshot().Get("shard.0.pool_conns"); return v }

	first := get()
	for i := 0; i < 5; i++ {
		if get() != first {
			t.Fatal("an idle connection was passed over")
		}
	}
	if conns() != 1 {
		t.Fatalf("%d connections after sequential statements, want 1", conns())
	}

	stopFirst := busy(t, first)
	second := get()
	if second == first || conns() != 2 {
		t.Fatalf("with the only connection busy get shared it (pool of %d) rather than dial the empty slot", conns())
	}
	if get() != second {
		t.Fatal("the idle connection was passed over for the busy one")
	}

	stopSecond := busy(t, second)
	stopThird := busy(t, second)
	if get() != first || conns() != 2 {
		t.Fatal("with every slot busy get did not share the least loaded connection")
	}
	// In execution order: a Cancel for a request still queued is lost.
	stopFirst()
	stopSecond()
	stopThird()

	// The shard goes away while both connections sit idle: get finds
	// that out itself instead of handing one out to be written to.
	shutdown()
	if c, err := s.get(ctx); err == nil {
		t.Fatalf("get handed out a connection (closed: %v) to a shard that is gone", c.Closed())
	}
}
