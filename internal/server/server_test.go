package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/server"
	"recdb/internal/wire"
)

// The protocol behaviours every front end shares (timeouts, cancel,
// busy, drain, panic isolation, raw-wire rejections, metrics) and the
// engine-only transaction tests that need the exec hook live with the
// shared core, in internal/frontend; these exercise the engine adapter
// end to end.

// startServer serves db on a loopback listener and returns the address
// and the server.
func startServer(t *testing.T, db *recdb.DB, opts server.Options) (string, *server.Server) {
	t.Helper()
	srv := server.New(db, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		db.Close()
	})
	return ln.Addr().String(), srv
}

func seededDB(t *testing.T) *recdb.DB {
	t.Helper()
	db := recdb.Open()
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	var stmts []string
	for u := 1; u <= 8; u++ {
		for i := 1; i <= 12; i++ {
			if (u+i)%3 == 0 {
				continue // leave unseen items to recommend
			}
			stmts = append(stmts, fmt.Sprintf(`INSERT INTO ratings VALUES (%d, %d, %d.0)`, u, i, (u*i)%5+1))
		}
	}
	if _, err := db.ExecScript(strings.Join(stmts, ";\n")); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE RECOMMENDER Rec ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)
	return db
}

func TestQueryExecPingRoundTrip(t *testing.T) {
	addr, _ := startServer(t, seededDB(t), server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.SessionID() == 0 {
		t.Fatal("no session id in handshake")
	}
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := c.Exec(ctx, `INSERT INTO ratings VALUES (99, 1, 5.0), (99, 2, 4.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}

	rows, err := c.Query(ctx, `SELECT uid, iid, ratingval FROM ratings WHERE uid = 99 ORDER BY iid ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Len(); got != 2 {
		t.Fatalf("rows = %d, want 2", got)
	}
	if cols := rows.Columns(); len(cols) != 3 || cols[0] != "uid" {
		t.Fatalf("columns = %v", cols)
	}
	if !rows.Next() {
		t.Fatal("Next returned false")
	}
	var uid, iid int64
	var rating float64
	if err := rows.Scan(&uid, &iid, &rating); err != nil {
		t.Fatal(err)
	}
	if uid != 99 || iid != 1 || rating != 5.0 {
		t.Fatalf("row = (%d, %d, %g)", uid, iid, rating)
	}

	rec, err := c.Query(ctx, `SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF WHERE R.uid = 2 ORDER BY R.ratingval DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("RECOMMEND returned no rows")
	}
	if rec.Strategy() == "" {
		t.Fatal("RECOMMEND answer carried no strategy")
	}

	if _, err := c.Query(ctx, `SELECT nope FROM nowhere`); err == nil {
		t.Fatal("bad query did not error")
	} else {
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeQuery {
			t.Fatalf("bad query error = %v", err)
		}
	}
	// The connection survives a query error.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after query error: %v", err)
	}
}

// TestHighFanoutScan pulls a result well past the row-batch chunk size
// through the wire, so the answer spans several RowBatch frames and at
// least one flush boundary; every row must arrive intact and in order.
func TestHighFanoutScan(t *testing.T) {
	db := recdb.Open()
	db.MustExec(`CREATE TABLE blobs (id INT, pad TEXT)`)
	pad := strings.Repeat("x", 100)
	var stmts []string
	for i := 0; i < 1200; i++ {
		stmts = append(stmts, fmt.Sprintf(`INSERT INTO blobs VALUES (%d, '%s')`, i, pad))
	}
	if _, err := db.ExecScript(strings.Join(stmts, ";\n")); err != nil {
		t.Fatal(err)
	}
	addr, _ := startServer(t, db, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	rows, err := c.Query(context.Background(), `SELECT id, pad FROM blobs ORDER BY id ASC`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1200 {
		t.Fatalf("rows = %d, want 1200", rows.Len())
	}
	for i := 0; rows.Next(); i++ {
		var id int64
		var p string
		if err := rows.Scan(&id, &p); err != nil {
			t.Fatal(err)
		}
		if id != int64(i) || p != pad {
			t.Fatalf("row %d = (%d, %d pad bytes)", i, id, len(p))
		}
	}
}

// TestConcurrentClients is the acceptance hammer: 64 clients of mixed
// traffic under -race, zero dropped responses.
func TestConcurrentClients(t *testing.T) {
	const clients = 64
	const perClient = 8
	addr, _ := startServer(t, seededDB(t), server.Options{MaxConns: clients + 4})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %w", n, err)
				return
			}
			defer func() { _ = c.Close() }()
			for j := 0; j < perClient; j++ {
				switch j % 4 {
				case 0:
					if err := c.Ping(ctx); err != nil {
						errs <- fmt.Errorf("client %d ping %d: %w", n, j, err)
						return
					}
				case 1:
					res, err := c.Exec(ctx, fmt.Sprintf(`INSERT INTO ratings VALUES (%d, %d, 3.0)`, 1000+n, j+1))
					if err != nil || res.RowsAffected != 1 {
						errs <- fmt.Errorf("client %d exec %d: affected=%d err=%w", n, j, res.RowsAffected, err)
						return
					}
				case 2:
					rows, err := c.Query(ctx, fmt.Sprintf(`SELECT iid, ratingval FROM ratings WHERE uid = %d`, n%8+1))
					if err != nil || rows.Len() == 0 {
						errs <- fmt.Errorf("client %d lookup %d: len=%v err=%w", n, j, rows.Len(), err)
						return
					}
				case 3:
					rows, err := c.Query(ctx, fmt.Sprintf(`SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF WHERE R.uid = %d ORDER BY R.ratingval DESC LIMIT 5`, n%8+1))
					if err != nil {
						errs <- fmt.Errorf("client %d recommend %d: %w", n, j, err)
						return
					}
					_ = rows
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
