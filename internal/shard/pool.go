package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"recdb/client"
	"recdb/internal/wire"
)

// ShardDownError reports that the shard a statement needed stayed
// unreachable past the router's bounded retries. It surfaces to clients
// as a wire error with code "shard_down"; statements owned by healthy
// shards keep serving.
type ShardDownError struct {
	Shard int    // shard index on the ring
	Addr  string // the shard's address
	Err   error  // the last transport failure
}

// Error implements error.
func (e *ShardDownError) Error() string {
	return fmt.Sprintf("shard %d (%s) is down: %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying transport failure.
func (e *ShardDownError) Unwrap() error { return e.Err }

// shardState is the router's view of one backend shard: a small pool of
// pipelined client connections plus a health flag the prober and the
// request path both maintain.
type shardState struct {
	shard int
	addr  string
	m     shardMetrics

	// up is read on every statement and changes only under mu, together
	// with its gauge and the transition count.
	up atomic.Bool

	mu    sync.Mutex
	conns []*client.Conn // fixed-size slots; nil or poisoned slots redial
	done  bool
}

func newShardState(shard int, addr string, size int, m shardMetrics) *shardState {
	s := &shardState{shard: shard, addr: addr, m: m, conns: make([]*client.Conn, size)}
	// Optimistic start: the first failed request or probe flips it down.
	s.up.Store(true)
	m.up.Set(1)
	return s
}

// get returns the pooled connection with the fewest requests in flight,
// dialing an empty slot rather than sharing a busy connection: a shard
// executes one connection's requests strictly one at a time, and a
// client.Conn with a single caller costs no wake-up to read. A poisoned
// connection, or one whose shard hung up on it while it sat idle, counts
// nothing in flight, so it is picked, found out and its slot redialed.
func (s *shardState) get(ctx context.Context) (*client.Conn, error) {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return nil, errors.New("shard: router closed")
	}
	best, empty, load := -1, -1, 0
	for i, c := range s.conns {
		if c == nil {
			if empty < 0 {
				empty = i
			}
		} else if n := c.InFlight(); best < 0 || n < load {
			best, load = i, n
		}
	}
	var c *client.Conn
	if best >= 0 {
		c = s.conns[best]
	}
	s.mu.Unlock()

	slot := empty
	if c != nil && (load == 0 || empty < 0) {
		if !c.Closed() {
			return c, nil
		}
		slot = best
	}
	nc, err := client.DialContext(ctx, s.addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		_ = nc.Close()
		return nil, errors.New("shard: router closed")
	}
	// Another caller may have refilled the slot first; keep the winner.
	if cur := s.conns[slot]; cur != nil && !cur.Closed() {
		s.mu.Unlock()
		_ = nc.Close()
		return cur, nil
	}
	s.conns[slot] = nc
	s.recountLocked()
	s.mu.Unlock()
	return nc, nil
}

// drop discards a poisoned connection so the next get redials its slot.
func (s *shardState) drop(c *client.Conn) {
	_ = c.Close()
	s.mu.Lock()
	s.recountLocked()
	s.mu.Unlock()
}

// recountLocked refreshes the pool-depth gauge. Callers hold s.mu.
func (s *shardState) recountLocked() {
	n := 0
	for _, c := range s.conns {
		if c != nil && !c.Closed() {
			n++
		}
	}
	s.m.poolConns.Set(int64(n))
}

// markUp records a successful exchange with the shard.
func (s *shardState) markUp() {
	if !s.up.Load() {
		s.setUp(true)
	}
}

// markDown records a transport failure against the shard.
func (s *shardState) markDown() { s.setUp(false) }

func (s *shardState) setUp(up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.up.Load() == up {
		return
	}
	s.up.Store(up)
	if up {
		s.m.up.Set(1)
	} else {
		s.m.up.Set(0)
	}
	s.m.transitions.Inc()
}

// healthy reports the shard's current health flag.
func (s *shardState) healthy() bool { return s.up.Load() }

// close tears the pool down; subsequent gets fail.
func (s *shardState) close() {
	s.mu.Lock()
	s.done = true
	conns := s.conns
	s.conns = make([]*client.Conn, len(conns))
	s.m.poolConns.Set(0)
	s.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// probe pings the shard once and updates its health flag — the path by
// which a downed shard comes back without waiting for live traffic to
// risk it.
func (s *shardState) probe(ctx context.Context, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c, err := s.get(pctx)
	if err != nil {
		s.markDown()
		return
	}
	if err := c.Ping(pctx); err != nil {
		var se *client.ServerError
		if errors.As(err, &se) {
			// The shard answered, even if with an error: it is up.
			s.markUp()
			return
		}
		s.drop(c)
		s.markDown()
		return
	}
	s.markUp()
}

// do runs one statement against one shard with bounded retry. A typed
// server answer (including query errors) is returned as-is — the shard
// is alive and already gave its verdict. Transport failures poison the
// connection and retry with doubling backoff, but only when the attempt
// is safe to repeat: reads always are; writes only when the request
// never reached the wire (a dial failure), since a write that died
// mid-flight may have committed on the shard. Exhausted retries yield a
// ShardDownError, which sessions answer with wire code "shard_down".
func (r *Router) do(ctx context.Context, shard int, kind wire.Type, sqlText string) (wire.Complete, *client.Rows, error) {
	s := r.states[shard]
	readonly := kind == wire.TypeQuery
	backoff := r.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= r.opts.Retries; attempt++ {
		if attempt > 0 {
			s.m.retries.Inc()
			r.m.retries.Inc()
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return wire.Complete{}, nil, ctx.Err()
			}
			backoff *= 2
		}
		c, err := s.get(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return wire.Complete{}, nil, ctx.Err()
			}
			s.markDown()
			lastErr = err
			continue // never sent: safe to retry even for writes
		}
		var complete wire.Complete
		var rows *client.Rows
		if readonly {
			rows, err = c.Query(ctx, sqlText)
		} else {
			var res client.Result
			res, err = c.Exec(ctx, sqlText)
			complete.Rows = res.RowsAffected
		}
		if err == nil {
			s.markUp()
			return complete, rows, nil
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			s.markUp()
		}
		if ctx.Err() != nil {
			// The statement's own context ended; a shard's "canceled" is
			// only the echo of the interrupt that context sent it, so the
			// context's verdict (timeout vs. canceled) is the answer.
			return wire.Complete{}, nil, ctx.Err()
		}
		if se != nil {
			return wire.Complete{}, nil, err
		}
		s.drop(c)
		s.markDown()
		lastErr = err
		if !readonly {
			break // the write may have landed; retrying could double-apply
		}
	}
	r.m.downErrors.Inc()
	return wire.Complete{}, nil, &ShardDownError{Shard: shard, Addr: s.addr, Err: lastErr}
}
