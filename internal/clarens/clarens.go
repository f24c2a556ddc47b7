package clarens

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridrdb/internal/netsim"
	"gridrdb/internal/obsv"
)

// Method is one service endpoint. The context derives from the HTTP
// request (plus the server's per-request deadline, when configured), so
// it is cancelled when the client disconnects; long-running methods must
// pass it down to their backends. Args and the result use the XML-RPC
// value family (nil, bool, int64, float64, string, time.Time, []byte,
// []interface{}, map[string]interface{}).
type Method func(ctx context.Context, call *CallContext, args []interface{}) (interface{}, error)

// CallContext carries per-call information to methods.
type CallContext struct {
	// User is the authenticated user ("" when the server runs open).
	User string
	// Session is the opaque session token the call authenticated with
	// ("" on open servers). It identifies one login, so per-session
	// resource quotas (open cursors, streamed bytes) key on it rather
	// than on User: two logins by the same user are separate sessions.
	Session string
	// Remote is the caller's address.
	Remote string
}

// sessionHeader carries the session token on authenticated calls.
const sessionHeader = "X-Clarens-Session"

// queryIDHeader carries the query id across server-to-server hops: the
// client copies it out of the calling context, the server restores it
// into the method context, so one query keeps one id through any number
// of forwards and relays.
const queryIDHeader = "X-Gridrdb-Query-Id"

// Server is a JClarens-style XML-RPC service host.
type Server struct {
	mu      sync.RWMutex
	methods map[string]Method
	// users maps user -> SHA-256 digest of the password. Storing the
	// fixed-size digest keeps the login compare's timing independent of
	// the stored password's length and of whether the user exists.
	users     map[string][sha256.Size]byte
	sessions  map[string]sessionInfo
	open      bool // no authentication required
	timeout   time.Duration
	checks    int       // checkSession calls since the last expiry sweep
	lastSweep time.Time // when the last expiry sweep ran
	ln        net.Listener
	srv       *http.Server
	now       func() time.Time // injectable clock for session-expiry tests
	// metrics, when set, renders the /metrics endpoint body (Prometheus
	// text exposition); nil answers 404 there.
	metrics func(io.Writer)
}

type sessionInfo struct {
	user    string
	expires time.Time
}

// sessionTTL bounds how long a login is valid.
const sessionTTL = time.Hour

// sweepEvery bounds how many session checks may pass between expiry
// sweeps, so abandoned tokens cannot accumulate without bound under
// login churn even when their owners never present them again.
const sweepEvery = 64

// sweepInterval bounds how often the login path may sweep: the scan is
// O(sessions) under the write lock, so a login burst pays it at most
// once per interval instead of once per login.
const sweepInterval = time.Minute

// NewServer creates a server. With open=true no login is required (the
// paper's test deployment); otherwise clients must call system.login
// first.
func NewServer(open bool) *Server {
	s := &Server{
		methods:  make(map[string]Method),
		users:    make(map[string][sha256.Size]byte),
		sessions: make(map[string]sessionInfo),
		open:     open,
		now:      time.Now,
	}
	s.Register("system.echo", func(_ context.Context, _ *CallContext, args []interface{}) (interface{}, error) {
		return args, nil
	})
	s.Register("system.listMethods", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var out []interface{}
		for name := range s.methods {
			out = append(out, name)
		}
		return out, nil
	})
	return s
}

// SetRequestTimeout bounds each method call's execution: the context
// handed to methods carries this deadline in addition to the client-
// disconnect cancellation. Zero (the default) applies no deadline.
func (s *Server) SetRequestTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timeout = d
}

func (s *Server) requestTimeout() time.Duration {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.timeout
}

// AddUser registers login credentials.
func (s *Server) AddUser(user, password string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[user] = sha256.Sum256([]byte(password))
}

// Register installs a method under a dotted name ("dataaccess.query").
func (s *Server) Register(name string, m Method) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[name] = m
}

// Start listens on addr and serves until Close; it returns the base URL.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// SetMetrics installs the /metrics endpoint's renderer (typically the
// obsv registry's WritePrometheus). It may be called before or after
// Start; nil uninstalls the endpoint (404).
func (s *Server) SetMetrics(render func(io.Writer)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = render
}

// Handler returns the XML-RPC endpoint handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/RPC2", s.handleRPC)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		render := s.metrics
		s.mu.RUnlock()
		if render == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		render(w)
	})
	return mux
}

func (s *Server) handleRPC(w http.ResponseWriter, r *http.Request) {
	// The call document is parsed straight off the request body by the
	// streaming decoder — no intermediate []byte, and a body over the size
	// cap faults distinctly instead of surfacing as a truncation parse
	// error.
	lr := newLimitReader(r.Body)
	method, args, err := unmarshalCallStream(lr)
	r.Body.Close()
	if err != nil {
		f := &Fault{Code: FaultParse, Message: err.Error()}
		if errors.Is(err, ErrTooLarge) {
			f.Message = fmt.Sprintf("request body too large (limit %d bytes)", maxBody)
		}
		s.writeFault(w, f)
		return
	}

	// system.login is the only method reachable without a session.
	if method == "system.login" {
		s.handleLogin(w, args)
		return
	}

	call := &CallContext{Remote: r.RemoteAddr}
	if !s.open {
		token := r.Header.Get(sessionHeader)
		user, ok := s.checkSession(token)
		if !ok {
			s.writeFault(w, &Fault{Code: FaultAuth, Message: "authentication required (call system.login)"})
			return
		}
		call.User = user
		call.Session = token
	}

	s.mu.RLock()
	m, ok := s.methods[method]
	s.mu.RUnlock()
	if !ok {
		s.writeFault(w, &Fault{Code: FaultNoMethod, Message: fmt.Sprintf("no such method %q", method)})
		return
	}
	// The method context derives from the request: it is cancelled when
	// the client disconnects, and bounded by the server's per-request
	// deadline when one is configured. A query id forwarded by the calling
	// server is restored into the context so the id survives the hop.
	ctx := r.Context()
	if id := r.Header.Get(queryIDHeader); id != "" {
		ctx = obsv.WithQueryID(ctx, id)
	}
	if d := s.requestTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	result, err := m(ctx, call, args)
	if err != nil {
		s.writeFault(w, FaultFor(err))
		return
	}
	s.writeResult(w, result)
}

// responseFlushThreshold is how much of a response the server buffers
// before it starts streaming to the client: small responses (the vast
// majority) stay fully buffered so an encode error can still become a
// clean fault and Content-Length can be set; larger documents stream with
// bounded memory instead of materializing.
const responseFlushThreshold = 256 << 10

// writeResult renders the method result straight to the response. The
// document is assembled in a pooled buffer (zero steady-state allocation)
// and row-aware payloads encode themselves cell-direct via ValueMarshaler.
func (s *Server) writeResult(w http.ResponseWriter, result interface{}) {
	buf := getBuf()
	defer putBuf(buf)
	sw := &streamWriter{dst: w, buf: buf, threshold: responseFlushThreshold}
	if err := MarshalResponseTo(sw, result); err != nil {
		if !sw.started {
			s.writeFault(w, &Fault{Code: FaultApplication, Message: err.Error()})
		}
		// Once bytes have been streamed a clean fault is impossible; the
		// truncated document surfaces as a parse error client-side.
		return
	}
	sw.finish()
}

// streamWriter buffers a response up to a threshold, then streams: the
// encoder writes tokens into the pooled buffer, and only a document that
// outgrows the threshold starts flowing to the client before it is
// complete.
type streamWriter struct {
	dst       http.ResponseWriter
	buf       *bytes.Buffer
	threshold int
	started   bool
	err       error
}

func (sw *streamWriter) Write(p []byte) (int, error) {
	if sw.err != nil { // client gone: discard, don't re-buffer the rest
		return len(p), nil
	}
	n, _ := sw.buf.Write(p)
	sw.maybeFlush()
	return n, nil
}

func (sw *streamWriter) WriteString(p string) (int, error) {
	if sw.err != nil {
		return len(p), nil
	}
	n, _ := sw.buf.WriteString(p)
	sw.maybeFlush()
	return n, nil
}

func (sw *streamWriter) WriteByte(b byte) error {
	if sw.err != nil {
		return nil
	}
	sw.buf.WriteByte(b)
	sw.maybeFlush()
	return nil
}

func (sw *streamWriter) maybeFlush() {
	if sw.buf.Len() < sw.threshold {
		return
	}
	if !sw.started {
		sw.started = true
		sw.dst.Header().Set("Content-Type", "text/xml")
	}
	_, sw.err = sw.buf.WriteTo(sw.dst)
	if sw.err != nil {
		// The response is undeliverable; keeping the tail would rebuild
		// the unbounded buffer the streaming threshold exists to avoid.
		sw.buf.Reset()
	}
}

// finish writes whatever remains; fully buffered responses also get a
// Content-Length.
func (sw *streamWriter) finish() {
	if sw.err != nil {
		return
	}
	if !sw.started {
		sw.dst.Header().Set("Content-Type", "text/xml")
		sw.dst.Header().Set("Content-Length", strconv.Itoa(sw.buf.Len()))
	}
	sw.buf.WriteTo(sw.dst)
}

func (s *Server) handleLogin(w http.ResponseWriter, args []interface{}) {
	if len(args) != 2 {
		s.writeFault(w, &Fault{Code: FaultAuth, Message: "system.login requires (user, password)"})
		return
	}
	user, _ := args[0].(string)
	password, _ := args[1].(string)
	s.mu.RLock()
	want, ok := s.users[user]
	s.mu.RUnlock()
	// Hash only the attacker-supplied input and compare fixed-size
	// digests: the work done is identical whether or not the user exists
	// (unknown users compare against the zero digest and fail on ok), so
	// response timing leaks neither user existence nor password content.
	got := sha256.Sum256([]byte(password))
	if subtle.ConstantTimeCompare(want[:], got[:]) != 1 || !ok {
		s.writeFault(w, &Fault{Code: FaultAuth, Message: "bad credentials"})
		return
	}
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		s.writeFault(w, &Fault{Code: FaultApplication, Message: err.Error()})
		return
	}
	token := hex.EncodeToString(buf)
	s.mu.Lock()
	s.sessions[token] = sessionInfo{user: user, expires: s.now().Add(sessionTTL)}
	// Sweep on login (rate-limited): under login churn the map stays
	// bounded by the live sessions plus at most one interval of expiries.
	if s.now().Sub(s.lastSweep) >= sweepInterval {
		s.sweepSessionsLocked()
	}
	s.mu.Unlock()
	s.writeResult(w, token)
}

// sweepSessionsLocked drops every expired session. s.mu must be held.
func (s *Server) sweepSessionsLocked() {
	now := s.now()
	for token, info := range s.sessions {
		if now.After(info.expires) {
			delete(s.sessions, token)
		}
	}
	s.checks = 0
	s.lastSweep = now
}

func (s *Server) checkSession(token string) (string, bool) {
	if token == "" {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Amortized sweep, doubly bounded: at least sweepEvery checks AND at
	// least sweepInterval since the last scan, so steady traffic over a
	// large, mostly-live session map is not stalled every 64th request.
	if s.checks++; s.checks >= sweepEvery && s.now().Sub(s.lastSweep) >= sweepInterval {
		s.sweepSessionsLocked()
	}
	info, ok := s.sessions[token]
	if !ok {
		return "", false
	}
	if s.now().After(info.expires) {
		delete(s.sessions, token)
		return "", false
	}
	return info.user, true
}

func (s *Server) writeFault(w http.ResponseWriter, f *Fault) {
	w.Header().Set("Content-Type", "text/xml")
	w.Write(MarshalFault(f))
}

// ---- client ----

// Client is a lightweight Clarens client.
type Client struct {
	// BaseURL is the server base ("http://host:port").
	BaseURL string
	// HTTP allows a custom transport; nil uses a default with timeout.
	HTTP *http.Client
	// Profile/Clock charge simulated network costs per call.
	Profile *netsim.Profile
	Clock   *netsim.Clock

	mu      sync.Mutex
	session string
}

// NewClient returns a client for a server base URL. The client sets no
// transport-level timeout: call deadlines belong to the caller's context
// (CallContext) and to the server's per-request deadline, so a hard cap
// here would silently override both. Callers wanting a blanket bound can
// supply their own HTTP client.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: &http.Client{}}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Client) clock() *netsim.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return netsim.DefaultClock
}

// LoginContext authenticates and stores the session token for later
// calls.
func (c *Client) LoginContext(ctx context.Context, user, password string) error {
	res, err := c.CallContext(ctx, "system.login", user, password)
	if err != nil {
		return err
	}
	token, ok := res.(string)
	if !ok {
		return fmt.Errorf("clarens: unexpected login response %T", res)
	}
	c.mu.Lock()
	c.session = token
	c.mu.Unlock()
	return nil
}

// CallContext invokes method with args and returns the decoded result.
// Cancelling ctx (or letting its deadline expire) aborts the HTTP request,
// which the server observes as a client disconnect and propagates to the
// running method.
func (c *Client) CallContext(ctx context.Context, method string, args ...interface{}) (interface{}, error) {
	return c.CallDecodeContext(ctx, method, nil, args...)
}

// CallDecodeContext is CallContext with a caller-supplied result decoder:
// when decode is non-nil it receives the streaming Decoder positioned at
// the response's result value and must consume exactly one value. This is
// the zero-boxing read path — dataaccess decodes row payloads straight
// into engine rows with it — while nil selects the generic value family.
// The request document is assembled in a pooled buffer and the response is
// decoded directly off the wire, so neither side of the call materializes
// an intermediate copy.
func (c *Client) CallDecodeContext(ctx context.Context, method string, decode func(*Decoder) (interface{}, error), args ...interface{}) (interface{}, error) {
	// The document is assembled in a pooled buffer inside MarshalCall and
	// copied out: the HTTP transport may keep reading the request body
	// from a background goroutine even after Do returns (cancellation,
	// early server response), so the bytes handed to it must be owned by
	// this call, not recycled through the pool.
	body, err := MarshalCall(method, args)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/RPC2", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/xml")
	if id := obsv.QueryID(ctx); id != "" {
		req.Header.Set(queryIDHeader, id)
	}
	c.mu.Lock()
	if c.session != "" {
		req.Header.Set(sessionHeader, c.session)
	}
	c.mu.Unlock()
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("clarens: call %s: %w", method, err)
	}
	defer resp.Body.Close()
	lr := newLimitReader(resp.Body)
	v, derr := decodeResponseStream(lr, decode)
	if derr == nil {
		// Drain the (normally tiny) remainder so the connection can be
		// reused and the bandwidth accounting below sees the whole body.
		// After a decode error the rest is worthless — closing the body
		// discards the connection instead of pulling megabytes of a
		// broken document off the wire first.
		io.Copy(io.Discard, lr)
	}
	if c.Profile != nil {
		c.clock().RoundTrip(c.Profile, int64(len(body))+lr.read)
	}
	if derr != nil && errors.Is(derr, ErrTooLarge) {
		return nil, fmt.Errorf("clarens: call %s: response body too large (limit %d bytes)", method, maxBody)
	}
	return v, derr
}
