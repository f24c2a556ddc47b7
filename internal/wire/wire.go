// Package wire implements the TCP client/server protocol used to reach
// remote database engines. In the paper's deployment the source databases
// and data marts are network servers (Oracle @ CERN Tier-1, MySQL @
// Caltech Tier-2, ...); wire plays the role of each vendor's network
// protocol so that the middleware's remote-access code paths (connect,
// authenticate, query, stream results) are genuinely exercised.
//
// The protocol is a simple sequence of gob-encoded messages over one TCP
// connection: a Hello (credentials + target database), then request/
// response pairs. Parameters and result rows travel as sqlengine row
// frames (docs/WIRE.md §5), the encoding peers negotiate for rows over
// XML-RPC, and netsim charges a round trip for the SQL text and frame
// bytes it carries. One connection maps to one engine session, so
// transactions hold across requests.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"gridrdb/internal/netsim"
	"gridrdb/internal/sqlengine"
)

// Hello is the connection handshake frame.
type Hello struct {
	Database string
	User     string
	Password string
}

// Request is one client->server message.
type Request struct {
	// Op is "query", "exec", "ping" or "close".
	Op  string
	SQL string
	// Params is the row frame of a query or exec: exactly one row, the
	// statement's parameters.
	Params []byte
}

// Response is one server->client message.
type Response struct {
	Err     string
	Columns []string
	// Rows is the result's row frame, nil when the statement returned no
	// result set.
	Rows         []byte
	RowsAffected int64
}

// Server hosts a set of database engines over TCP.
type Server struct {
	mu      sync.RWMutex
	engines map[string]*sqlengine.Engine
	ln      net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closed  bool
	logger  *log.Logger
}

// NewServer creates an empty server; add engines with AddEngine.
func NewServer(logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{engines: make(map[string]*sqlengine.Engine), conns: make(map[net.Conn]struct{}), logger: logger}
}

// AddEngine registers an engine under its database name.
func (s *Server) AddEngine(e *sqlengine.Engine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.engines[e.Name()] = e
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		closed := s.closed
		if !closed {
			s.conns[conn] = struct{}{}
		}
		s.mu.Unlock()
		if closed {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener, closes every accepted connection (idle ones
// included: a pooled client may hold one open indefinitely) and waits for
// their sessions to roll back.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, conn := range conns {
		conn.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)

	var hello Hello
	if err := dec.Decode(&hello); err != nil {
		return
	}
	s.mu.RLock()
	eng, ok := s.engines[hello.Database]
	s.mu.RUnlock()
	if !ok {
		enc.Encode(&Response{Err: fmt.Sprintf("wire: unknown database %q", hello.Database)})
		return
	}
	if err := eng.Authenticate(hello.User, hello.Password); err != nil {
		enc.Encode(&Response{Err: err.Error()})
		return
	}
	if err := enc.Encode(&Response{}); err != nil {
		return
	}

	sess := eng.NewSession()
	defer sess.Rollback()
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp Response
		switch req.Op {
		case "ping":
			// empty response
		case "close":
			enc.Encode(&Response{})
			return
		case "query", "exec":
			rs, n, err := run(sess, &req)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.RowsAffected = n
				if rs != nil {
					resp.Columns = rs.Columns
					resp.Rows = sqlengine.AppendRowFrame(nil, rs.Rows)
				}
			}
		default:
			resp.Err = fmt.Sprintf("wire: unknown op %q", req.Op)
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// run decodes a query or exec request's parameters, which must be exactly
// one frame row, and runs its statement.
func run(sess *sqlengine.Session, req *Request) (*sqlengine.ResultSet, int64, error) {
	params, err := sqlengine.DecodeRowFrame(req.Params)
	if err != nil {
		return nil, 0, fmt.Errorf("wire: params: %w", err)
	}
	if len(params) != 1 {
		return nil, 0, fmt.Errorf("wire: params frame holds %d rows, want 1", len(params))
	}
	return sess.Run(req.SQL, params[0]...)
}

// Client is one connection to a remote database engine. It is not safe for
// concurrent use (like a database/sql driver connection).
type Client struct {
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	profile *netsim.Profile
	clock   *netsim.Clock
	// err is the first send or receive error; the connection carries
	// nothing after it.
	err error
}

// Dial connects, authenticates, and selects a database. profile/clock are
// optional (nil means no simulated network cost).
func Dial(addr string, hello Hello, profile *netsim.Profile, clock *netsim.Clock) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), profile: profile, clock: clock}
	if c.profile == nil {
		c.profile = netsim.Local
	}
	if c.clock == nil {
		c.clock = netsim.DefaultClock
	}
	c.clock.Connect(c.profile)
	if err := c.enc.Encode(&hello); err != nil {
		conn.Close()
		return nil, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		conn.Close()
		return nil, err
	}
	if resp.Err != "" {
		conn.Close()
		return nil, errors.New(resp.Err)
	}
	return c, nil
}

// roundTrip sends a request and decodes the response, charging network
// cost for the SQL text and the row frames it carries. After a send or
// receive error the connection is broken and roundTrip returns that error
// without sending.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := c.enc.Encode(req); err != nil {
		c.err = fmt.Errorf("wire: send: %w", err)
		return nil, c.err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		c.err = fmt.Errorf("wire: recv: %w", err)
		return nil, c.err
	}
	c.clock.RoundTrip(c.profile, int64(len(req.SQL)+len(req.Params)+len(resp.Rows)))
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

// Broken reports whether a send or receive has failed on the connection.
// A broken client sends nothing more; every call returns that first error.
func (c *Client) Broken() bool { return c.err != nil }

// Alive reports whether the connection can still carry a request: it is
// not broken, and a read that does not wait finds nothing, as it should
// between requests. EOF (the server or a middlebox closed the link while
// the client sat idle), a read error or an unasked byte breaks the client.
func (c *Client) Alive() bool {
	if c.err == nil {
		if err := readIdle(c.conn); err != nil {
			c.err = fmt.Errorf("wire: link check: %w", err)
		}
	}
	return c.err == nil
}

// statement runs one query or exec request.
func (c *Client) statement(op, sql string, params []sqlengine.Value) (*Response, error) {
	return c.roundTrip(&Request{Op: op, SQL: sql, Params: sqlengine.AppendRowFrame(nil, []sqlengine.Row{params})})
}

// Query runs a SELECT-style statement remotely.
func (c *Client) Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	resp, err := c.statement("query", sql, params)
	if err != nil {
		return nil, err
	}
	rs := &sqlengine.ResultSet{Columns: resp.Columns}
	if resp.Rows != nil {
		if rs.Rows, err = sqlengine.DecodeRowFrame(resp.Rows); err != nil {
			return nil, fmt.Errorf("wire: rows: %w", err)
		}
	}
	return rs, nil
}

// Exec runs a DML/DDL statement remotely and returns rows affected.
func (c *Client) Exec(sql string, params ...sqlengine.Value) (int64, error) {
	resp, err := c.statement("exec", sql, params)
	if err != nil {
		return 0, err
	}
	return resp.RowsAffected, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	// Best-effort close message; the server also handles abrupt EOF.
	if c.err == nil {
		c.enc.Encode(&Request{Op: "close"})
	}
	return c.conn.Close()
}
