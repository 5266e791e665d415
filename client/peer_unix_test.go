//go:build unix

package client_test

import (
	"context"
	"testing"
	"time"

	"recdb/client"
	"recdb/internal/server"
)

// Nothing reads an idle Conn, so Closed has to look: a server that hung
// up is noticed there, before anyone sends it another request.
func TestClosedNoticesHangUpOnAnIdleConn(t *testing.T) {
	srv, addr := startServer(t, server.Options{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Closed() {
		t.Fatal("a healthy idle connection reported closed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); !c.Closed(); {
		if time.Now().After(deadline) {
			t.Fatal("Closed never noticed that the server hung up")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping succeeded on a connection the server closed")
	}
}
