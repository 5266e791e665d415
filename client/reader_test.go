package client_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"recdb/client"
	"recdb/internal/server"
)

// wantSquares checks that rows are n copies of uid squared — the answer
// to this caller's statement and nobody else's.
func wantSquares(rows *client.Rows, uid, n int) error {
	if rows.Len() != n {
		return fmt.Errorf("uid %d: %d rows, want %d", uid, rows.Len(), n)
	}
	for rows.Next() {
		var v int64
		if err := rows.Scan(&v); err != nil {
			return err
		}
		if v != int64(uid*uid) {
			return fmt.Errorf("uid %d got v=%d, want %d", uid, v, uid*uid)
		}
	}
	return nil
}

// A Conn has no goroutine of its own: the caller reads its own answer.
// With one caller at a time the reader role is never handed to anyone.
func TestReaderRoleStaysWithASingleCaller(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for i := 0; i < 200; i++ {
		uid := i % 64
		rows, err := c.Query(context.Background(), fmt.Sprintf("SELECT v FROM kv WHERE uid = %d", uid))
		if err == nil {
			err = wantSquares(rows, uid, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := c.Ping(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := client.RolePassesForTest(c); n != 0 {
		t.Fatalf("the reader role was passed %d times with a single caller", n)
	}
}

// Sixteen callers share a Conn, slow statements among fast ones: whoever
// is reading delivers everyone's frames, the role moves on when its
// holder's own answer is complete, and every caller gets its own rows.
func TestReaderRolePassesBetweenCallers(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const callers, rounds = 16, 40
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for caller := 0; caller < callers; caller++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				uid := (caller*rounds + round) % 64
				sql, n := fmt.Sprintf("SELECT v FROM kv WHERE uid = %d", uid), 1
				if (caller+round)%4 == 0 { // slow: 64 x 64 pairs, 64 of them kept
					sql, n = fmt.Sprintf("SELECT A.v FROM kv A, kv B WHERE A.uid = %d", uid), 64
				}
				rows, err := c.Query(context.Background(), sql)
				if err == nil {
					err = wantSquares(rows, uid, n)
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", caller, round, err)
					return
				}
			}
		}(caller)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := client.RolePassesForTest(c); n == 0 {
		t.Fatalf("%d callers shared the connection and the reader role never moved", callers)
	}
	if n := c.InFlight(); n != 0 {
		t.Fatalf("%d requests in flight after every caller returned", n)
	}
}

// One caller's cancellation — its Cancel frame, the grace deadline on
// the shared socket — is its own: the callers sharing the connection get
// their answers, and the connection survives.
func TestCancelOnASharedConn(t *testing.T) {
	_, addr := startServer(t, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, "SELECT A.v FROM kv A, kv B, kv C, kv D WHERE A.v > D.v")
		canceled <- err
	}()
	for c.InFlight() == 0 { // the long statement is on the wire first
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for caller := 0; caller < 4; caller++ {
		wg.Add(1)
		go func(uid int) {
			defer wg.Done()
			rows, err := c.Query(context.Background(), fmt.Sprintf("SELECT v FROM kv WHERE uid = %d", uid))
			if err == nil {
				err = wantSquares(rows, uid, 1)
			}
			if err != nil {
				t.Errorf("bystander %d: %v", uid, err)
			}
		}(caller)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	var se *client.ServerError
	if err := <-canceled; !errors.As(err, &se) || se.Code != "canceled" {
		t.Fatalf("canceled call returned %v, want a canceled ServerError", err)
	}
	wg.Wait()
	if c.Closed() {
		t.Fatal("a cancelled call poisoned the connection")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}
