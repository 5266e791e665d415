package shard_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"recdb/client"
	"recdb/internal/shard"
	"recdb/internal/types"
	"recdb/internal/wire"
)

// frame is one response frame as it came off the wire.
type frame struct {
	typ     wire.Type
	payload []byte
}

// queryFrames sends sql as Query id over a connection of its own to addr
// and returns every frame of the answer, through its terminal one.
func queryFrames(t *testing.T, addr string, id uint32, sql string) []frame {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write([]byte(wire.Magic)); err != nil {
		t.Fatal(err)
	}
	in := wire.NewReader(conn)
	if typ, _, err := in.Next(); err != nil || typ != wire.TypeHello {
		t.Fatalf("handshake with %s: %q %v", addr, byte(typ), err)
	}
	if err := wire.WriteFrame(conn, wire.TypeQuery, wire.AppendRequest(nil, wire.Request{ID: id, SQL: sql})); err != nil {
		t.Fatal(err)
	}
	var out []frame
	for {
		typ, p, err := in.Next()
		if err != nil {
			t.Fatalf("%s: after %d frames: %v", addr, len(out), err)
		}
		out = append(out, frame{typ, append([]byte(nil), p...)})
		if typ == wire.TypeComplete || typ == wire.TypeError {
			return out
		}
	}
}

// answer is a Query answer decoded from its frames.
type answer struct {
	cols     []string
	strategy string
	rows     []types.Row
	batches  int
}

// decodeAnswer decodes frames, failing unless every one of them carries
// request id want.
func decodeAnswer(t *testing.T, frames []frame, want uint32) answer {
	t.Helper()
	var a answer
	for _, f := range frames {
		var id uint32
		switch f.typ {
		case wire.TypeRowDesc:
			d, err := wire.DecodeRowDesc(f.payload)
			if err != nil {
				t.Fatal(err)
			}
			id, a.cols, a.strategy = d.ID, d.Columns, d.Strategy
		case wire.TypeRowBatch:
			bid, rows, err := wire.DecodeRowBatch(f.payload)
			if err != nil {
				t.Fatal(err)
			}
			id, a.rows = bid, append(a.rows, rows...)
			a.batches++
		case wire.TypeComplete:
			c, err := wire.DecodeComplete(f.payload)
			if err != nil {
				t.Fatal(err)
			}
			if c.Rows != int64(len(a.rows)) {
				t.Fatalf("CommandComplete counts %d rows, %d arrived", c.Rows, len(a.rows))
			}
			id = c.ID
		default:
			e, _ := wire.DecodeError(f.payload)
			t.Fatalf("frame %q (%+v), want a row answer", byte(f.typ), e)
		}
		if id != want {
			t.Fatalf("a %q frame carries request id %d, want %d", byte(f.typ), id, want)
		}
	}
	return a
}

// sameAnswer compares two answers: columns, strategy, and rows value by
// value with floats by their bits.
func sameAnswer(got, want answer) error {
	if strings.Join(got.cols, ",") != strings.Join(want.cols, ",") || got.strategy != want.strategy {
		return fmt.Errorf("columns %v strategy %q, want %v %q", got.cols, got.strategy, want.cols, want.strategy)
	}
	if len(got.rows) != len(want.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i, row := range got.rows {
		if len(row) != len(want.rows[i]) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(row), len(want.rows[i]))
		}
		for j, v := range row {
			w := want.rows[i][j]
			if v.Kind() != w.Kind() || v.String() != w.String() ||
				math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
				return fmt.Errorf("row %d value %d = %v, want %v", i, j, v, w)
			}
		}
	}
	return nil
}

// TestRelayedAnswerEqualsOwnerAnswer: an owner-routed read through the
// router is the owning shard's own answer — columns, strategy, every row
// by value and float bits, the same RowBatch frames byte for byte — with
// the client's request id on every frame. Covered: a point lookup, a
// RECOMMEND top-10, an empty answer, and 6 000 rows over several batches.
func TestRelayedAnswerEqualsOwnerAnswer(t *testing.T) {
	r, c := cluster(t, 2)
	ctx := context.Background()
	if _, err := c.Exec(ctx, seedDDL); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for u := 1; u <= 24; u++ {
		for i := 1; i <= 12; i++ {
			if (u+i)%4 != 0 {
				vals = append(vals, fmt.Sprintf("(%d, %d, %d.%d)", u, i, 1+(u*i)%5, (u+i)%10))
			}
		}
	}
	if _, err := c.Exec(ctx, `INSERT INTO ratings VALUES `+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	// One user's 6 000 rows, in a table of their own so that the model
	// below stays small.
	const heavy = 7
	vals = vals[:0]
	for i := 100; i < 6100; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %g)", heavy, i, float64(i%97)/7))
	}
	if _, err := c.Exec(ctx, `CREATE TABLE history (uid INT, iid INT, ratingval FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `INSERT INTO history VALUES `+strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(ctx, `CREATE RECOMMENDER rec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`); err != nil {
		t.Fatal(err)
	}
	ring, err := shard.NewRing(len(r.Shards()))
	if err != nil {
		t.Fatal(err)
	}
	routedUser := counter(r.Metrics(), "shard.routed_user")
	for _, tc := range []struct {
		name       string
		user       int64
		sql        string
		minRows    int
		minBatches int
	}{
		{"lookup", 3, `SELECT iid, ratingval FROM ratings WHERE uid = 3`, 1, 1},
		{"recommend top-10", 3, `SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF WHERE R.uid = 3 ORDER BY R.ratingval DESC LIMIT 10`, 1, 1},
		{"empty", 99999, `SELECT iid, ratingval FROM ratings WHERE uid = 99999`, 0, 0},
		{"many batches", heavy, fmt.Sprintf(`SELECT uid, iid, ratingval FROM history WHERE uid = %d`, heavy), 6000, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const id = 0xbeef
			owner := r.Shards()[ring.Owner(tc.user)]
			directFrames := queryFrames(t, owner, id, tc.sql)
			routedFrames := queryFrames(t, serverAddr(t, r), id, tc.sql)
			direct := decodeAnswer(t, directFrames, id)
			routed := decodeAnswer(t, routedFrames, id)
			if len(direct.rows) < tc.minRows || direct.batches < tc.minBatches {
				t.Fatalf("the owner answered %d rows in %d batches; the case needs %d in %d",
					len(direct.rows), direct.batches, tc.minRows, tc.minBatches)
			}
			if err := sameAnswer(routed, direct); err != nil {
				t.Fatal(err)
			}
			for i, f := range routedFrames {
				if f.typ == wire.TypeRowBatch && !bytes.Equal(f.payload, directFrames[i].payload) {
					t.Fatalf("relayed RowBatch %d differs from the owner's", i)
				}
			}
			// The same answer to a caller's own request id.
			rows, err := c.Query(ctx, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAnswer(answer{cols: rows.Columns(), strategy: rows.Strategy(), rows: rows.All()}, direct); err != nil {
				t.Fatalf("through client.Conn: %v", err)
			}
		})
	}
	if got := counter(r.Metrics(), "shard.routed_user") - routedUser; got != 8 {
		t.Fatalf("%d statements took the owner route, want all 8", got)
	}
}

// serverAddr is the address r serves clients on.
func serverAddr(t *testing.T, r *shard.Router) string {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); r.Addr() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("router never started serving")
		}
	}
	return r.Addr()
}

// corruptingProxy relays one shard's traffic and damages the first tuple
// of every RowBatch it carries — its first value's kind byte becomes one
// no encoding uses — under a freshly computed, valid CRC.
func corruptingProxy(t *testing.T, backend string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				_ = c.Close()
				continue
			}
			go func() {
				_, _ = io.Copy(b, c)
				_ = b.Close()
			}()
			go func() {
				defer func() { _ = c.Close() }()
				in := wire.NewReader(b)
				for {
					typ, p, err := in.Next()
					if err != nil {
						return
					}
					p = append([]byte(nil), p...)
					if typ == wire.TypeRowBatch {
						// id, count, then the first tuple's value count
						_, sz := binary.Uvarint(p[4:])
						if _, sz2 := binary.Uvarint(p[4+sz:]); 4+sz+sz2 < len(p) {
							p[4+sz+sz2] = 0xee
						}
					}
					out, err := wire.AppendFrame(nil, typ, p)
					if err != nil {
						return
					}
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRelayRefusesCorruptTuple: a tuple the shard's RowBatch cannot have
// meant, under a valid CRC, fails the routed statement "shard_down" once
// the router's read retries meet it again — the router refuses the batch
// where it is read, as it did when it decoded every row — and no frame of
// that answer but the error reaches the client. Statements the other
// shard owns keep serving.
func TestRelayRefusesCorruptTuple(t *testing.T) {
	direct := startShard(t)
	proxied := corruptingProxy(t, startShard(t))
	r, c := startRouter(t, shard.Options{
		Shards:         []string{direct, proxied},
		Retries:        2,
		RetryBackoff:   time.Millisecond,
		HealthInterval: time.Hour,
	})
	ctx := context.Background()
	if _, err := c.Exec(ctx, seedDDL); err != nil {
		t.Fatal(err)
	}
	ring, err := shard.NewRing(2)
	if err != nil {
		t.Fatal(err)
	}
	users := map[int]int64{}
	for u := int64(1); len(users) < 2; u++ {
		if _, seen := users[ring.Owner(u)]; !seen {
			users[ring.Owner(u)] = u
			if _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO ratings VALUES (%d, 1, 2.5)", u)); err != nil {
				t.Fatal(err)
			}
		}
	}
	victim := users[1]
	const id = 0xc0de
	frames := queryFrames(t, serverAddr(t, r), id, fmt.Sprintf("SELECT iid, ratingval FROM ratings WHERE uid = %d", victim))
	if len(frames) != 1 || frames[0].typ != wire.TypeError {
		t.Fatalf("%d frames, the first %q; want the Error frame alone", len(frames), byte(frames[0].typ))
	}
	e, err := wire.DecodeError(frames[0].payload)
	if err != nil || e.ID != id || e.Code != wire.CodeShardDown || !strings.Contains(e.Message, "unknown value kind 238") {
		t.Fatalf("error frame %+v (%v), want request %d %q over the bad tuple", e, err, id, wire.CodeShardDown)
	}
	if n := counter(r.Metrics(), "shard.retries"); n != 2 {
		t.Fatalf("shard.retries = %d, want the 2 read retries", n)
	}
	var se *client.ServerError
	if _, err := c.Query(ctx, fmt.Sprintf("SELECT iid FROM ratings WHERE uid = %d", victim)); !errors.As(err, &se) || se.Code != wire.CodeShardDown {
		t.Fatalf("through client.Conn: %v, want %q", err, wire.CodeShardDown)
	}
	rows, err := c.Query(ctx, fmt.Sprintf("SELECT iid FROM ratings WHERE uid = %d", users[0]))
	if err != nil || rows.Len() != 1 {
		t.Fatalf("the healthy shard's user: %v", err)
	}
}
