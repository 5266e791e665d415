//go:build unix

package client

import (
	"net"
	"syscall"
)

// hangupProbe looks at a connection's socket, without blocking and
// without consuming anything, to see whether the peer has hung up. Its
// peek closure is built once, so a probe allocates nothing.
type hangupProbe struct {
	rc   syscall.RawConn // nil when the connection has no socket to look at
	peek func(fd uintptr) bool
	gone bool // peek's verdict
}

func newHangupProbe(nc net.Conn) *hangupProbe {
	p := &hangupProbe{}
	if sc, ok := nc.(syscall.Conn); ok {
		p.rc, _ = sc.SyscallConn() // left nil on error: nothing to probe
	}
	p.peek = func(fd uintptr) bool {
		var b [1]byte
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		switch err {
		case nil:
			p.gone = n == 0 // end of stream
		case syscall.EAGAIN, syscall.EINTR:
			p.gone = false
		default:
			p.gone = true
		}
		return true // never wait for the socket to become readable
	}
	return p
}

// hungUp reports whether the peer has closed or reset the connection.
// Bytes waiting to be read, or nothing at all, mean it has not.
func (p *hangupProbe) hungUp() bool {
	if p.rc == nil {
		return false
	}
	if err := p.rc.Read(p.peek); err != nil {
		return true // closed under us
	}
	return p.gone
}
