package dataaccess

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gridrdb/internal/clarens"
	"gridrdb/internal/netsim"
	"gridrdb/internal/poolral"
	"gridrdb/internal/qcache"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/unity"
	"gridrdb/internal/xspec"
)

// Config configures one JClarens instance: the data access service and,
// through Start, its XML-RPC front end.
type Config struct {
	// Name identifies this JClarens instance.
	Name string
	// Open disables authentication (the paper's test setup). When false,
	// Users must be non-empty and clients must log in.
	Open bool
	// Users holds login credentials for non-open servers.
	Users map[string]string
	// Addr is the listen address; "" means 127.0.0.1:0.
	Addr string
	// URL is the advertised base URL published to the RLS. Start keeps a
	// URL set here (a server reached through another address than the one
	// it binds) and otherwise records the bound URL.
	URL string
	// RequestTimeout bounds each XML-RPC method call's execution server-
	// side (0 = none): the context handed to methods — and threaded into
	// every backend the query touches — carries this deadline in addition
	// to client-disconnect cancellation. Calls cut off by it fail with
	// the FaultCancelled XML-RPC fault code.
	RequestTimeout time.Duration
	// RLS is the replica catalog client; nil disables remote forwarding.
	RLS *rls.Client
	// Profile charges simulated network costs on remote forwards.
	Profile *netsim.Profile
	// CacheSize enables the query-result cache when > 0: up to this many
	// federated SELECT results are kept and served without re-executing
	// their sub-queries. Entries are invalidated when the schema-change
	// tracker detects a change on a source they read from, when a source
	// is removed, or when a mart re-materialization reports a refresh;
	// writes applied directly to backends outside those channels are only
	// bounded by CacheTTL, so keep the cache off (the default) for
	// workloads that mutate marts out of band.
	CacheSize int
	// CacheMaxBytes additionally bounds the cache by estimated resident
	// bytes (0 = entry count only): LRU eviction runs against both caps,
	// and a single result set larger than 1/8 of the budget is refused
	// admission instead of evicting everything else.
	CacheMaxBytes int64
	// CacheTTL bounds cached-entry lifetime (0 = no expiry).
	CacheTTL time.Duration
	// CursorTTL bounds how long an idle server-side cursor (opened via
	// the system.cursor.* methods) survives between fetches before the
	// reaper cancels its query and releases its resources. 0 selects the
	// default (2 minutes); < 0 disables reaping.
	CursorTTL time.Duration
	// DisableBinRows turns off the negotiated binary row framing in both
	// directions: this server neither advertises the row codec (so peers
	// fall back to plain XML when forwarding to it) nor probes peers
	// before its own forwards. Plain XML-RPC is always accepted
	// regardless, so third-party clients are unaffected either way.
	DisableBinRows bool
	// RelayFetchSize is how many rows each cursor-relay fetch requests
	// from a remote peer (0 = DefaultFetchSize; the peer clamps to its own
	// MaxFetchSize). It bounds this server's buffering per federated
	// stream: a relayed scan holds at most one chunk of this many rows.
	RelayFetchSize int
	// SourceBudget bounds each per-source operation that runs to completion
	// on its own — a whole-query forward, a peer's table-column lookup, a
	// relay cursor open, every relay fetch and the relay close —
	// independently of the caller's request deadline, so one stuck peer
	// cannot consume the whole request budget. The cursors feeding the
	// pipelined operators are paced by the consumer and bounded by the
	// request deadline only (see unity.ExecuteStreamOp). 0 applies no
	// per-source bound.
	SourceBudget time.Duration
	// ScratchMaxBytes is the byte budget of each buffering streaming
	// operator (hash-join build, external sort): past it the operator
	// spills to disk instead of growing the heap. 0 selects the default
	// (64 MiB); negative disables spilling, letting buffers grow
	// unbounded.
	ScratchMaxBytes int64
	// Logger receives the query path's structured records (route
	// decisions, completions, relays, slow queries), each carrying the
	// query id; nil discards them.
	Logger *slog.Logger
	// SlowQueryThreshold admits queries at least this slow to the
	// slow-query ring (system.slowqueries), each captured with its
	// explain plan and per-phase timings. 0 disables capture.
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the slow-query ring (0 = 64 entries).
	SlowQueryLogSize int
	// DisableObsv turns off the per-query instrumentation (ids, phase
	// timings, latency histograms, logging, slow capture). The metric
	// registry itself stays up, serving lifetime counters. It is the
	// reference side of TestObsvOverheadBudget, which holds the
	// instrumentation under 5% of the routed query path.
	DisableObsv bool
	// MaxInFlight enables the admission gate when > 0: at most this many
	// queries execute (or stream) concurrently; arrivals past the cap
	// queue FIFO within their tenant's weight class until a slot frees,
	// their deadline expires, or the queue fills — the last two shed with
	// clarens.FaultOverloaded before any planning or backend work. Cache
	// hits and coalesced waits never consume a slot. 0 disables the gate.
	MaxInFlight int
	// AdmissionQueue bounds how many queries may wait for a slot. 0
	// selects the default (2 × MaxInFlight); < 0 disables queueing, so a
	// saturated gate sheds immediately.
	AdmissionQueue int
	// AdmissionTimeout is the queue deadline: a waiter that has not been
	// granted a slot within it is shed with FaultOverloaded (the caller's
	// own context expiring first yields FaultCancelled instead). 0
	// selects the default (5s); < 0 waits bounded only by the caller's
	// context.
	AdmissionTimeout time.Duration
	// TenantWeights gives named tenants (authenticated users) a relative
	// share of the admission queue's drain rate; unlisted tenants weigh
	// 1. Weights only matter under backlog — an idle gate admits anyone.
	TenantWeights map[string]int
	// SessionMaxCursors caps server-side cursors concurrently open per
	// session (0 = unlimited). Past it, cursor opens shed with a
	// FaultOverloaded quota fault until one closes, drains, or is reaped.
	SessionMaxCursors int
	// SessionMaxBytes caps estimated bytes streamed to one session over
	// its lifetime (0 = unlimited); the budget resets when the session
	// ends (a fresh login, or the hour-idle sweep). A quota hit mid-stream
	// fails the stream with a FaultOverloaded fault and releases its
	// backend resources — remote relay cursors included.
	SessionMaxBytes int64
}

// Route identifies which module answered a query (§4.5's two modules plus
// the remote path).
type Route string

// The possible routes.
const (
	RoutePOOLRAL Route = "pool-ral"
	RouteUnity   Route = "unity"
	RouteRemote  Route = "remote"
	RouteMixed   Route = "mixed"
)

// Stats counts routing decisions.
type Stats struct {
	Queries    atomic.Int64
	RAL        atomic.Int64
	Unity      atomic.Int64
	Forwarded  atomic.Int64
	Mixed      atomic.Int64
	RLSLookups atomic.Int64
	// SchemaLookups counts the table-column lookups (dataaccess.schema)
	// the mixed route asked peers for.
	SchemaLookups atomic.Int64
	// BinForwards counts remote forwards that used the negotiated binary
	// row framing (the rest fell back to plain XML-RPC).
	BinForwards atomic.Int64
}

// Service is one data access service instance.
type Service struct {
	cfg Config
	fed *unity.Federation
	ral *poolral.RAL
	// cache holds federated query results keyed by (SQL, params); nil
	// when Config.CacheSize is 0.
	cache *qcache.Cache[*QueryResult]
	// cursors tracks open server-side result cursors (system.cursor.*).
	cursors *cursorRegistry

	mu      sync.Mutex
	remotes map[string]*remotePeer
	// ralConns maps source name -> RAL connection string for POOL-
	// supported sources.
	ralConns map[string]string

	stats Stats
	// obs is the observability state: metric registry, logger,
	// slow-query ring, and the relay/cursor lifetime counters.
	obs *serviceObsv
	// admit is the weighted max-in-flight gate (nil when MaxInFlight is
	// 0); sessions enforces per-session cursor/byte quotas (nil when both
	// quota knobs are 0).
	admit    *admitter
	sessions *sessionTable
}

// New creates an empty service; add databases with AddDatabase.
func New(cfg Config) *Service {
	s := &Service{
		cfg:      cfg,
		fed:      mustEmptyFederation(),
		ral:      poolral.New(),
		remotes:  make(map[string]*remotePeer),
		ralConns: make(map[string]string),
	}
	s.obs = newServiceObsv(cfg, s)
	s.admit = newAdmitter(cfg, s.obs)
	s.sessions = newSessionTable(cfg, s.obs)
	s.cursors = newCursorRegistry(cfg.CursorTTL, s.obs)
	s.fed.ScratchMaxBytes = cfg.ScratchMaxBytes
	s.fed.Logger = s.obs.logger
	s.fed.OpenPeer = s.tableStreamFromRemote
	if cfg.CacheSize > 0 {
		shards := 0 // qcache's default
		if cfg.CacheMaxBytes > 0 {
			// The admission cap is clamped to one shard's byte budget, so
			// with the usual 16 shards the documented cap (1/8 of
			// CacheMaxBytes) would silently halve. 8 shards make it exact.
			shards = 8
		}
		s.cache = qcache.New[*QueryResult](qcache.Options[*QueryResult]{
			MaxEntries: cfg.CacheSize,
			MaxBytes:   cfg.CacheMaxBytes,
			SizeOf:     func(qr *QueryResult) int64 { return ResultSetBytes(qr.ResultSet) },
			TTL:        cfg.CacheTTL,
			Shards:     shards,
		})
	}
	return s
}

// Start launches one JClarens instance: the service, and its XML-RPC front
// end with the request timeout, the users, every method and /metrics,
// listening on cfg.Addr. It returns the bound URL; the service advertises
// cfg.URL when that is set and the bound URL otherwise.
func Start(cfg Config) (*Service, *clarens.Server, string, error) {
	if !cfg.Open && len(cfg.Users) == 0 {
		return nil, nil, "", fmt.Errorf("dataaccess: server %q is closed but has no users", cfg.Name)
	}
	svc := New(cfg)
	front := clarens.NewServer(cfg.Open)
	front.SetRequestTimeout(cfg.RequestTimeout)
	for u, p := range cfg.Users {
		front.AddUser(u, p)
	}
	svc.RegisterMethods(front)
	front.SetMetrics(svc.Metrics().WritePrometheus)
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	url, err := front.Start(addr)
	if err != nil {
		svc.Close()
		return nil, nil, "", err
	}
	if cfg.URL == "" {
		svc.SetURL(url)
	}
	return svc, front, url, nil
}

// ResultSetBytes estimates the resident size of a materialized result
// set: the fixed footprint of each Value plus the variable payload of
// strings and byte slices, and the per-row slice headers. It is the
// SizeOf estimator behind the cache's byte accounting and the streaming
// path's cache-admission threshold.
func ResultSetBytes(rs *sqlengine.ResultSet) int64 {
	if rs == nil {
		return 0
	}
	n := int64(unsafe.Sizeof(rs.Rows))
	for _, c := range rs.Columns {
		n += int64(unsafe.Sizeof(c)) + int64(len(c))
	}
	for _, row := range rs.Rows {
		n += sqlengine.RowBytes(row)
	}
	return n
}

func mustEmptyFederation() *unity.Federation {
	f, err := unity.Open(&xspec.UpperSpec{Name: "empty"}, nil)
	if err != nil {
		panic(err) // cannot happen: empty spec
	}
	return f
}

// Federation exposes the underlying Unity federation.
func (s *Service) Federation() *unity.Federation { return s.fed }

// Stats returns the routing counters.
func (s *Service) Stats() *Stats { return &s.stats }

// SetURL records the advertised URL (after the Clarens server binds).
func (s *Service) SetURL(url string) { s.cfg.URL = url }

// AddDatabase registers a database (data mart) with this instance: the
// federation learns its tables, the POOL-RAL initializes a handle when the
// vendor is supported, and the tables are published to the RLS.
func (s *Service) AddDatabase(ref xspec.SourceRef, spec *xspec.LowerSpec, user, password string) error {
	if err := s.fed.AddSource(ref, spec); err != nil {
		return err
	}
	vendor := unity.VendorFromDriver(ref.Driver)
	if poolral.Supported(vendor) {
		conn := vendor + ":" + ref.URL
		if err := s.ral.InitHandler(conn, user, password); err != nil {
			s.fed.RemoveSource(ref.Name)
			return fmt.Errorf("dataaccess: RAL init for %q: %w", ref.Name, err)
		}
		s.mu.Lock()
		s.ralConns[ref.Name] = conn
		s.mu.Unlock()
	}
	return s.publishTables(spec)
}

// RemoveDatabase unplugs a database. Cached results that read from it are
// evicted: they can no longer be recomputed, so serving them would hide
// the removal.
func (s *Service) RemoveDatabase(name string) error {
	if err := s.fed.RemoveSource(name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.ralConns, name)
	s.mu.Unlock()
	s.InvalidateSource(name)
	return nil
}

// publishTables announces a spec's tables to the RLS (§4.8: "each service
// instance publishes information about the databases and the tables it is
// hosting").
func (s *Service) publishTables(spec *xspec.LowerSpec) error {
	if s.cfg.RLS == nil || s.cfg.URL == "" {
		return nil
	}
	var tables []string
	for _, t := range spec.Tables {
		tables = append(tables, xspec.LogicalName(t.Logical, t.Name))
	}
	if len(tables) == 0 {
		return nil
	}
	return s.cfg.RLS.Publish(s.cfg.URL, tables)
}

// PublishAll republishes every hosted table (used after schema changes and
// for RLS TTL renewal).
func (s *Service) PublishAll() error {
	dict := s.fed.Dictionary()
	tables := dict.LogicalTables()
	if len(tables) == 0 || s.cfg.RLS == nil || s.cfg.URL == "" {
		return nil
	}
	return s.cfg.RLS.Publish(s.cfg.URL, tables)
}

// Close releases all connections, cancelling any still-open cursors.
func (s *Service) Close() error {
	if s.cfg.RLS != nil && s.cfg.URL != "" {
		s.cfg.RLS.Unpublish(s.cfg.URL, nil)
	}
	s.cursors.closeAll()
	err1 := s.fed.Close()
	err2 := s.ral.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// QueryResult bundles the merged rows with the route that produced them.
type QueryResult struct {
	*sqlengine.ResultSet
	Route Route
	// Servers is the number of Clarens servers involved (1 = local only).
	Servers int
}

// QueryContext is the service entry point: parse, route, execute,
// integrate. When the result cache is enabled, a repeated query is
// answered from the cache (no sub-queries re-executed) and concurrent
// identical queries are collapsed into one execution; callers must treat
// the returned rows as read-only, since hits share one materialized
// result set.
//
// ctx is threaded through every backend the routed query touches:
// POOL-RAL statements, Unity sub-queries, RLS lookups and remote JClarens
// forwards all stop promptly when it is cancelled or its deadline
// expires. With the result cache enabled the context governs only this
// caller's wait — a coalesced computation shared with other callers keeps
// running until its last waiter departs (see qcache.Do).
//
// The materialized answer is the drained stream: the same resolve and
// open QueryStreamContext uses, pulled to the end here.
func (s *Service) QueryContext(ctx context.Context, sqlText string, params ...sqlengine.Value) (*QueryResult, error) {
	s.stats.Queries.Add(1)
	ctx, t := s.beginTrack(ctx, sqlText)
	// The admission slot is held from before planning until the drain
	// ends; a shed request does no planning or backend work.
	run := func(ctx context.Context) (*QueryResult, []qcache.Dep, error) {
		tk, err := s.acquireSlot(ctx)
		if err != nil {
			return nil, nil, err
		}
		defer tk.release()
		d, err := s.resolve(ctx, sqlText, params)
		if err != nil {
			return nil, nil, err
		}
		sr, err := s.open(ctx, d, sqlText, params, true)
		if err != nil {
			return nil, nil, err
		}
		tb := t.now()
		rs, err := sqlengine.Drain(sr)
		t.addBackend(tb)
		if err != nil {
			return nil, nil, err
		}
		return &QueryResult{ResultSet: rs, Route: sr.Route, Servers: sr.Servers}, d.deps, nil
	}
	var (
		qr     *QueryResult
		served bool
		err    error
	)
	if s.cache == nil {
		qr, _, err = run(ctx)
	} else {
		// The track rides into the computation through the context values
		// qcache.Do preserves on its detached goroutine; a served answer
		// (resident hit or coalesced wait) never ran the computation, so
		// its class is the cache. Admission happens inside the computation
		// for the same reason: hits and coalesced waiters never consume an
		// in-flight slot — only the query that actually runs does.
		qr, served, err = s.cache.Do(ctx, cacheKey(sqlText, params), run)
	}
	if served {
		t.setClass(classCache)
	}
	if err == nil {
		t.noteRows(int64(len(qr.Rows)))
	}
	t.finish(err)
	return qr, err
}

// acquireSlot admits the context's caller through the in-flight gate,
// noting the outcome (immediate / queued-for-how-long) on the query
// track. The nil ticket from a disabled gate is safe to release.
func (s *Service) acquireSlot(ctx context.Context) (*ticket, error) {
	if s.admit == nil {
		return nil, nil
	}
	tk, err := s.admit.acquire(ctx, callerFrom(ctx).tenantOf())
	if err != nil {
		return nil, err
	}
	trackFrom(ctx).noteAdmission(tk.outcome, tk.waited)
	return tk, nil
}

// remoteDepPrefix marks a source name as another JClarens instance:
// prefixed to the server's URL it is the location a table served there is
// planned at (peerLocations), and so the source of that table's sub-query
// and of its cache dependency. The local schema tracker cannot observe
// remote schema changes, so entries carrying these deps rely on CacheTTL
// (or an explicit flush) for freshness.
const remoteDepPrefix = "remote:"

// remotePeer is one remembered remote JClarens instance plus the outcome
// of the row-codec capability handshake against it.
type remotePeer struct {
	c *clarens.Client

	mu sync.Mutex
	// codec is the negotiation state: 0 = not probed yet (or the probe
	// failed transiently and will be retried), 1 = peer speaks the binary
	// row framing, -1 = plain XML only.
	codec int8
}

// decodeForwardResult is the streaming result decoder forwards hand to
// CallDecodeContext: rows land directly in engine values, whichever
// framing the peer used.
func decodeForwardResult(d *clarens.Decoder) (interface{}, error) {
	return DecodeResultFrom(d)
}

// sourceCall derives the context for one remote per-source operation: the
// configured SourceBudget is layered on top of the caller's deadline, so a
// stuck peer is cut off after the budget even when the overall request has
// (or needs) a much longer allowance.
func (s *Service) sourceCall(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.SourceBudget <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.SourceBudget)
}

// forward sends a query to a remote JClarens instance over XML-RPC.
// Server↔server transfers use the negotiated binary row framing when the
// peer advertises it (system.capabilities), transparently falling back to
// plain XML-RPC otherwise; either way the response rows are decoded
// streaming, straight into engine values. Cancelling ctx aborts the HTTP
// request; the remote server sees the disconnect and cancels its own
// backend work in turn.
func (s *Service) forward(ctx context.Context, serverURL, sqlText string) (*sqlengine.ResultSet, error) {
	ctx, cancel := s.sourceCall(ctx)
	defer cancel()
	p := s.remotePeer(serverURL)
	if s.peerSpeaksBinary(ctx, p) {
		res, err := p.c.CallDecodeContext(ctx, "dataaccess.queryb", decodeForwardResult, sqlText)
		var f *clarens.Fault
		switch {
		case err == nil:
			rs, ok := res.(*sqlengine.ResultSet)
			if !ok {
				// A methodResponse with no result value decodes to nil.
				return nil, fmt.Errorf("dataaccess: forward to %s: empty response", serverURL)
			}
			s.stats.BinForwards.Add(1)
			return rs, nil
		case errors.As(err, &f) && f.Code == clarens.FaultNoMethod:
			// The peer lost the method (restarted without the codec, or a
			// stale capability answer): renegotiate as plain XML.
			p.mu.Lock()
			p.codec = -1
			p.mu.Unlock()
		default:
			return nil, fmt.Errorf("dataaccess: forward to %s: %w", serverURL, err)
		}
	}
	res, err := p.c.CallDecodeContext(ctx, "dataaccess.query", decodeForwardResult, sqlText)
	if err != nil {
		return nil, fmt.Errorf("dataaccess: forward to %s: %w", serverURL, err)
	}
	rs, ok := res.(*sqlengine.ResultSet)
	if !ok {
		return nil, fmt.Errorf("dataaccess: forward to %s: empty response", serverURL)
	}
	return rs, nil
}

// peerSpeaksBinary resolves (once per peer) whether the remote advertises
// the binary row codec. A transient probe failure leaves the state
// unresolved — the forward falls back to plain XML now and the next
// forward probes again; only a definitive answer (a capability response,
// or a server without the method) is cached.
func (s *Service) peerSpeaksBinary(ctx context.Context, p *remotePeer) bool {
	if s.cfg.DisableBinRows {
		return false
	}
	p.mu.Lock()
	state := p.codec
	p.mu.Unlock()
	if state != 0 {
		return state == 1
	}
	res, err := p.c.CallContext(ctx, "system.capabilities")
	next := int8(-1)
	if err != nil {
		var f *clarens.Fault
		if !errors.As(err, &f) || f.Code != clarens.FaultNoMethod {
			next = 0 // transport trouble: retry on a later forward
		}
	} else if m, ok := res.(map[string]interface{}); ok {
		// Pin to the exactly-supported version: the responder frames rows
		// at the version it advertises, so a future higher-version peer
		// must be spoken to over plain XML rather than answered with
		// frames this side cannot decode. (A later protocol revision can
		// add a requested-version argument for graceful downgrade.)
		if v, _ := m["rowcodec"].(int64); v == RowCodecVersion {
			next = 1
		}
	}
	p.mu.Lock()
	p.codec = next
	p.mu.Unlock()
	return next == 1
}

func (s *Service) remotePeer(serverURL string) *remotePeer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.remotes[serverURL]; ok {
		return p
	}
	c := clarens.NewClient(serverURL)
	c.Profile = s.cfg.Profile
	p := &remotePeer{c: c}
	s.remotes[serverURL] = p
	return p
}

// ---- query result cache ----

// cacheKey derives the cache key for a query: its SQL text, or, with
// parameters, the text behind its length and then the parameters' row
// frame, which keeps each value's kind and every bit of it.
func cacheKey(sqlText string, params []sqlengine.Value) string {
	if len(params) == 0 {
		return sqlText
	}
	key := binary.AppendUvarint(nil, uint64(len(sqlText)))
	return string(sqlengine.AppendRowFrame(append(key, sqlText...), []sqlengine.Row{params}))
}

// CacheEnabled reports whether the query-result cache is on.
func (s *Service) CacheEnabled() bool { return s.cache != nil }

// CacheStats snapshots the cache counters (zero when disabled).
func (s *Service) CacheStats() qcache.Stats {
	if s.cache == nil {
		return qcache.Stats{}
	}
	return s.cache.Stats()
}

// InvalidateSource evicts every cached result that read from the named
// source, returning how many entries were dropped.
func (s *Service) InvalidateSource(source string) int {
	if s.cache == nil {
		return 0
	}
	return s.cache.InvalidateSource(source)
}

// InvalidateTable evicts cached results that read (source, table).
func (s *Service) InvalidateTable(source, table string) int {
	if s.cache == nil {
		return 0
	}
	return s.cache.InvalidateTable(source, table)
}

// CacheFlush drops every cached result (operational escape hatch, also
// exposed as the system.cacheflush XML-RPC method).
func (s *Service) CacheFlush() int {
	if s.cache == nil {
		return 0
	}
	return s.cache.Flush()
}

// MartInvalidator returns a warehouse.ETL OnRefresh hook: when the ETL
// re-materializes a table of the named mart, the dependent cache entries
// are evicted so the next query sees the refreshed rows.
func (s *Service) MartInvalidator(source string) func(table string) {
	return func(table string) { s.InvalidateTable(source, strings.ToLower(table)) }
}
