//go:build !unix

package client

import "net"

// hangupProbe has no portable way to look at a socket without reading
// it; here a peer that hung up on an idle connection is found out by
// the first read after the next request.
type hangupProbe struct{}

func newHangupProbe(net.Conn) *hangupProbe { return nil }

func (*hangupProbe) hungUp() bool { return false }
