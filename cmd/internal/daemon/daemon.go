// Package daemon is the main loop recdb-server and recdb-router share.
package daemon

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Run is the main loop both binaries end in: listen on addr, announce
// the bound address, serve until SIGINT/SIGTERM, then drain within
// drainTimeout. Scripts and the bench harnesses parse the "listening
// on" line to learn the port when addr ends in :0; banner lines, if
// any, follow it.
func Run(addr string, s interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}, drainTimeout time.Duration, banner ...string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	for _, line := range banner {
		fmt.Println(line)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Printf("%s: draining...\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil {
			return err
		}
		fmt.Println("drained")
		return nil
	}
}
