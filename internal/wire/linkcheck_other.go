//go:build !unix

package wire

import "net"

// readIdle has no non-blocking read on this platform: it reports the link
// alive, and a closed link fails the next request instead.
func readIdle(net.Conn) error { return nil }
