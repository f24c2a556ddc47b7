// Package rls implements the Replica Location Service of §4.8: a central
// catalog mapping table names to the URLs of the JClarens replica servers
// hosting them. Each data access service instance publishes the tables it
// hosts; when a server receives a query for a table it does not host
// locally, it asks the RLS which remote server to forward the sub-query
// to. This is what lets many service instances each host a small subset of
// the databases ("load can be distributed over as many servers as
// required, instead of putting it entirely on just one server").
//
// The service is an HTTP+JSON catalog with TTL-based expiry so crashed
// replica servers age out, mirroring Globus RLS soft-state registration.
package rls

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"gridrdb/internal/netsim"
)

// DefaultTTL is how long a publication stays alive without renewal.
const DefaultTTL = 5 * time.Minute

// mapping is one table -> server registration.
type mapping struct {
	serverURL string
	expires   time.Time
}

// Server is the central RLS catalog.
type Server struct {
	mu sync.Mutex
	// tables maps lower-cased table name -> serverURL -> mapping.
	tables map[string]map[string]mapping
	ttl    time.Duration
	ln     net.Listener
	srv    *http.Server
	now    func() time.Time
}

// NewServer creates a catalog with the given TTL (0 = DefaultTTL).
func NewServer(ttl time.Duration) *Server {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Server{tables: make(map[string]map[string]mapping), ttl: ttl, now: time.Now}
}

// publishRequest is the body of POST /publish and /unpublish.
type publishRequest struct {
	ServerURL string   `json:"server_url"`
	Tables    []string `json:"tables"`
}

// lookupResponse is the body of GET /lookup.
type lookupResponse struct {
	Table   string   `json:"table"`
	Servers []string `json:"servers"`
}

// Handler returns the HTTP handler (also useful for tests without sockets).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/publish", s.handlePublish)
	mux.HandleFunc("/unpublish", s.handleUnpublish)
	mux.HandleFunc("/lookup", s.handleLookup)
	mux.HandleFunc("/dump", s.handleDump)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Start listens on addr ("127.0.0.1:0" for tests) and serves until Close.
// It returns the base URL of the catalog.
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

// Close stops the HTTP server.
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req publishRequest
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.ServerURL == "" || len(req.Tables) == 0 {
		http.Error(w, "rls: server_url and tables are required", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	exp := s.now().Add(s.ttl)
	for _, t := range req.Tables {
		key := strings.ToLower(t)
		if s.tables[key] == nil {
			s.tables[key] = make(map[string]mapping)
		}
		s.tables[key][req.ServerURL] = mapping{serverURL: req.ServerURL, expires: exp}
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleUnpublish(w http.ResponseWriter, r *http.Request) {
	var req publishRequest
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if len(req.Tables) == 0 {
		// Remove every mapping for this server.
		for key, servers := range s.tables {
			delete(servers, req.ServerURL)
			if len(servers) == 0 {
				delete(s.tables, key)
			}
		}
	} else {
		for _, t := range req.Tables {
			key := strings.ToLower(t)
			if servers, ok := s.tables[key]; ok {
				delete(servers, req.ServerURL)
				if len(servers) == 0 {
					delete(s.tables, key)
				}
			}
		}
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	table := strings.ToLower(r.URL.Query().Get("table"))
	if table == "" {
		http.Error(w, "rls: table parameter required", http.StatusBadRequest)
		return
	}
	resp := lookupResponse{Table: table, Servers: s.Lookup(table)}
	writeJSON(w, resp)
}

func (s *Server) handleDump(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	now := s.now()
	dump := make(map[string][]string, len(s.tables))
	for t, servers := range s.tables {
		for url, m := range servers {
			if m.expires.After(now) {
				dump[t] = append(dump[t], url)
			}
		}
		sort.Strings(dump[t])
	}
	s.mu.Unlock()
	writeJSON(w, dump)
}

// Lookup returns the live server URLs hosting a table (server-side form).
func (s *Server) Lookup(table string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var out []string
	for url, m := range s.tables[strings.ToLower(table)] {
		if m.expires.After(now) {
			out = append(out, url)
		} else {
			delete(s.tables[strings.ToLower(table)], url)
		}
	}
	sort.Strings(out)
	return out
}

func decodeJSON(r *http.Request, v interface{}) error {
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Client talks to an RLS catalog.
type Client struct {
	// BaseURL is the catalog base ("http://host:port").
	BaseURL string
	// HTTP allows injecting a custom client; nil uses a default with a
	// sane timeout.
	HTTP *http.Client
	// Profile/Clock charge simulated network costs per catalog call.
	Profile *netsim.Profile
	Clock   *netsim.Clock
}

// NewClient returns a client for the catalog at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{Timeout: 10 * time.Second}}
}

func (c *Client) charge() {
	if c.Profile == nil {
		return
	}
	clock := c.Clock
	if clock == nil {
		clock = netsim.DefaultClock
	}
	clock.RoundTrip(c.Profile, 256)
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// Publish registers tables as hosted by serverURL.
func (c *Client) Publish(serverURL string, tables []string) error {
	return c.post("/publish", publishRequest{ServerURL: serverURL, Tables: tables})
}

// Unpublish removes mappings; empty tables removes all for serverURL.
func (c *Client) Unpublish(serverURL string, tables []string) error {
	return c.post("/unpublish", publishRequest{ServerURL: serverURL, Tables: tables})
}

func (c *Client) post(path string, body interface{}) error {
	c.charge()
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.BaseURL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("rls: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("rls: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// LookupContext asks the catalog which servers host a table, under a
// caller-supplied context so an abandoned federated query does not keep
// waiting on the catalog.
func (c *Client) LookupContext(ctx context.Context, table string) ([]string, error) {
	c.charge()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/lookup?table="+url.QueryEscape(table), nil)
	if err != nil {
		return nil, fmt.Errorf("rls: lookup: %w", err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("rls: lookup: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("rls: lookup: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var lr lookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return nil, err
	}
	return lr.Servers, nil
}
