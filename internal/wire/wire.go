// Package wire implements the TCP client/server protocol used to reach
// remote database engines. In the paper's deployment the source databases
// and data marts are network servers (Oracle @ CERN Tier-1, MySQL @
// Caltech Tier-2, ...); wire plays the role of each vendor's network
// protocol so that the middleware's remote-access code paths (connect,
// authenticate, query, stream results) are genuinely exercised.
//
// The protocol is a simple sequence of gob-encoded frames over one TCP
// connection: a Hello (credentials + target database), then request/
// response pairs. One connection maps to one engine session, so
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

// Request is one client->server frame.
type Request struct {
	// Op is "query", "exec", "ping" or "close".
	Op     string
	SQL    string
	Params []sqlengine.Value
}

// Response is one server->client frame.
type Response struct {
	Err          string
	Columns      []string
	Rows         []sqlengine.Row
	RowsAffected int64
}

// Server hosts a set of database engines over TCP.
type Server struct {
	mu      sync.RWMutex
	engines map[string]*sqlengine.Engine
	ln      net.Listener
	wg      sync.WaitGroup
	closed  bool
	logger  *log.Logger
}

// NewServer creates an empty server; add engines with AddEngine.
func NewServer(logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Server{engines: make(map[string]*sqlengine.Engine), logger: logger}
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
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.closed = true
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
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
			rs, n, err := sess.Run(req.SQL, req.Params...)
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.RowsAffected = n
				if rs != nil {
					resp.Columns = rs.Columns
					resp.Rows = rs.Rows
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

// Client is one connection to a remote database engine. It is not safe for
// concurrent use (like a database/sql driver connection).
type Client struct {
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	profile *netsim.Profile
	clock   *netsim.Clock
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
// cost proportional to a rough response size estimate.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("wire: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	c.clock.RoundTrip(c.profile, int64(len(req.SQL))+estimateSize(resp.Rows))
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

// estimateSize approximates the wire size of a row set for bandwidth
// charging.
func estimateSize(rows []sqlengine.Row) int64 {
	var n int64
	for _, r := range rows {
		for _, v := range r {
			switch v.Kind {
			case sqlengine.KindString, sqlengine.KindBytes:
				n += int64(len(v.Str())) + 2
			default:
				n += 9
			}
		}
	}
	return n
}

// Query runs a SELECT-style statement remotely.
func (c *Client) Query(sql string, params ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	resp, err := c.roundTrip(&Request{Op: "query", SQL: sql, Params: params})
	if err != nil {
		return nil, err
	}
	return &sqlengine.ResultSet{Columns: resp.Columns, Rows: resp.Rows}, nil
}

// Exec runs a DML/DDL statement remotely and returns rows affected.
func (c *Client) Exec(sql string, params ...sqlengine.Value) (int64, error) {
	resp, err := c.roundTrip(&Request{Op: "exec", SQL: sql, Params: params})
	if err != nil {
		return 0, err
	}
	return resp.RowsAffected, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	// Best-effort close frame; the server also handles abrupt EOF.
	c.enc.Encode(&Request{Op: "close"})
	return c.conn.Close()
}
