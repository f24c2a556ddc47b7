//go:build unix

package wire

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// readIdle reads one byte from conn without blocking. It returns nil when
// there is nothing to read, io.EOF when the peer has closed the link,
// and an error for any other read error or for a byte that arrived
// unasked.
func readIdle(conn net.Conn) error {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	var n int
	var rerr error
	if err := rc.Read(func(fd uintptr) bool {
		var b [1]byte
		n, rerr = syscall.Read(int(fd), b[:])
		return true // one try: never wait for data
	}); err != nil {
		return err
	}
	switch {
	case rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK:
		return nil
	case rerr != nil:
		return rerr
	case n == 0:
		return io.EOF
	}
	return errors.New("unexpected data from the server")
}
