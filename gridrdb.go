// Package gridrdb is a Go reproduction of "Heterogeneous Relational
// Databases for a Grid-enabled Analysis Environment" (Ali et al., ICPP
// Workshops 2005): middleware that gives Grid clients a single virtual
// view over geographically distributed, heterogeneous relational
// databases.
//
// The package is a facade over the building blocks in internal/:
//
//   - sqlengine: an embedded relational engine instantiated per vendor
//     dialect (Oracle, MySQL, MS-SQL, SQLite) — the substrate standing in
//     for the real database products;
//   - warehouse: the ETL pipeline (normalized sources -> denormalized star
//     warehouse) and data-mart materialization;
//   - unity + poolral: the two query-routing modules of the data access
//     layer; unity scatter-gathers per-source sub-queries over a bounded
//     parallel worker pool, so federated latency is the max over sources
//     rather than the sum;
//   - qcache: the query-result cache of the data access layer — a
//     sharded, TTL'd LRU with singleflight collapsing of concurrent
//     identical queries and (source, table) dependency fingerprints, so a
//     schema change or mart re-materialization evicts exactly the
//     dependent entries (enable per server with ServerConfig.CacheSize;
//     inspect with the system.cachestats XML-RPC method);
//   - rls: the replica location service;
//   - clarens + dataaccess: the JClarens web-service interface and the
//     routing/integration core. Result marshalling runs on a zero-boxing
//     wire path — rows encode cell-direct into pooled buffers and decode
//     straight off the wire by a byte scanner — and server↔server
//     transfers (remote forwards, cursor relays) negotiate a compact
//     binary row framing via system.capabilities, falling back to plain
//     XML-RPC so simple third-party clients keep working (disable per
//     server with ServerConfig.DisableBinRows).
//
// Queries are answered materialized (Server.Query) or as incremental
// row streams (Server.QueryStream); streamed queries that route to
// another server ride a cursor-to-cursor relay, so per-scan memory is
// bounded by a fetch size on every hop of the federation.
//
// A Grid value assembles a full deployment: one RLS catalog plus any
// number of JClarens server instances, each hosting data marts. See
// examples/quickstart for a complete walk-through, docs/ARCHITECTURE.md
// for the layer map and data flows, and docs/WIRE.md for the wire
// protocol third-party clients speak.
package gridrdb

import (
	"context"
	"sync"

	"gridrdb/internal/clarens"
	"gridrdb/internal/dataaccess"
	"gridrdb/internal/rls"
	"gridrdb/internal/sqldriver"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/warehouse"
	"gridrdb/internal/xspec"
)

// Re-exported value types so callers rarely need internal imports.
type (
	// Value is one SQL scalar.
	Value = sqlengine.Value
	// Row is one tuple.
	Row = sqlengine.Row
	// ResultSet is a materialized query result.
	ResultSet = sqlengine.ResultSet
	// Engine is one emulated database server.
	Engine = sqlengine.Engine
	// Dialect is a vendor SQL dialect.
	Dialect = sqlengine.Dialect
	// QueryResult is a routed query answer.
	QueryResult = dataaccess.QueryResult
	// StreamResult is a routed query answer delivered incrementally (see
	// Server.QueryStream).
	StreamResult = dataaccess.StreamResult
	// RowIter is an incremental row stream.
	RowIter = sqlengine.RowIter
	// SourceRef locates one member database.
	SourceRef = xspec.SourceRef
	// LowerSpec is a per-database XSpec document.
	LowerSpec = xspec.LowerSpec
)

// Vendor dialects.
var (
	Oracle = sqlengine.DialectOracle
	MySQL  = sqlengine.DialectMySQL
	MSSQL  = sqlengine.DialectMSSQL
	SQLite = sqlengine.DialectSQLite
	ANSI   = sqlengine.DialectANSI
)

// Value constructors.
var (
	Int    = sqlengine.NewInt
	Float  = sqlengine.NewFloat
	String = sqlengine.NewString
	Bool   = sqlengine.NewBool
	Null   = sqlengine.Null
)

// NewEngine creates an emulated database of the given vendor dialect and
// registers it for local:// DSN access.
func NewEngine(name string, d *Dialect) *Engine {
	e := sqlengine.NewEngine(name, d)
	sqldriver.RegisterEngine(e)
	return e
}

// GenerateXSpec introspects a live engine into its lower-level XSpec.
func GenerateXSpec(e *Engine) (*LowerSpec, error) {
	return xspec.Generate(e.Name(), e.Dialect().Name, e)
}

// FormatResult renders a result set as an aligned text table.
func FormatResult(rs *ResultSet) string { return sqlengine.FormatResult(rs) }

// ServerConfig configures one JClarens instance in a Grid: every knob of
// the data access service and its XML-RPC front end.
type ServerConfig = dataaccess.Config

// Server is one running JClarens instance: the data access service plus
// its XML-RPC front end.
type Server struct {
	Name    string
	URL     string
	Service *dataaccess.Service
	Clarens *clarens.Server
}

// AddMart registers a data mart (an Engine previously created with
// NewEngine, or any DSN-reachable database) with this server and publishes
// its tables to the grid's RLS.
func (s *Server) AddMart(e *Engine) error {
	spec, err := GenerateXSpec(e)
	if err != nil {
		return err
	}
	ref := SourceRef{
		Name:   e.Name(),
		URL:    "local://" + e.Name(),
		Driver: e.Dialect().DriverName,
		XSpec:  e.Name() + ".xspec",
	}
	return s.Service.AddDatabase(ref, spec, "", "")
}

// Query runs a federated query on this server.
func (s *Server) Query(sql string, params ...Value) (*QueryResult, error) {
	return s.Service.QueryContext(context.Background(), sql, params...)
}

// QueryContext runs a federated query under a caller-supplied context:
// cancellation or deadline expiry propagates to every backend the routed
// query touches (POOL-RAL, Unity sub-queries, RLS lookups and remote
// forwards).
func (s *Server) QueryContext(ctx context.Context, sql string, params ...Value) (*QueryResult, error) {
	return s.Service.QueryContext(ctx, sql, params...)
}

// QueryStream runs a federated query as an incremental row stream: rows
// are pulled from the producing backend as the caller iterates, so a scan
// larger than server memory never materializes. Single-source scans (the
// POOL-RAL route and Unity pushdown plans) stream straight off the
// backend. A query whose tables live on another Clarens server streams
// through a cursor-to-cursor relay: this server opens a cursor on the
// peer and pulls it page by page, so no hop materializes the scan and
// memory stays bounded by the fetch size end to end (peers without cursor
// support fall back to a materialized forward). Mixed multi-server
// queries relay their remote inputs incrementally into the integration
// engine and stream the integrated result from memory. Cancelling ctx —
// or closing the stream — stops the backend query mid-scan, closing any
// remote cursors the relay holds. The caller must Close the stream
// (ForEach does so automatically):
//
//	sr, err := srv.QueryStream(ctx, "SELECT * FROM events")
//	if err != nil { ... }
//	err = sr.ForEach(func(row gridrdb.Row) error { ...; return nil })
//
// Remote consumers get the same shape through the system.cursor.open /
// fetch / close XML-RPC methods (gridql -stream).
func (s *Server) QueryStream(ctx context.Context, sql string, params ...Value) (*StreamResult, error) {
	return s.Service.QueryStreamContext(ctx, sql, params...)
}

// WireETL connects an in-process ETL pipeline to this server's query
// cache: after every Materialize into the named mart, the cached results
// that read the refreshed table are evicted. Call it once per (ETL, mart)
// before running Stage 2 against a mart this server serves; cross-process
// refreshes use `etlctl -notify` instead.
func (s *Server) WireETL(etl *warehouse.ETL, martSource string) {
	etl.OnRefresh = s.Service.MartInvalidator(martSource)
}

// Client returns an XML-RPC client bound to this server.
func (s *Server) Client() *clarens.Client { return clarens.NewClient(s.URL) }

// Grid assembles a deployment: an RLS catalog plus JClarens servers.
type Grid struct {
	mu      sync.Mutex
	rls     *rls.Server
	rlsURL  string
	servers []*Server
}

// NewGrid returns an empty deployment.
func NewGrid() *Grid { return &Grid{} }

// StartRLS launches the replica location service; addr "" binds an
// ephemeral localhost port. It returns the catalog URL.
func (g *Grid) StartRLS(addr string) (string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.rls != nil {
		return g.rlsURL, nil
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	srv := rls.NewServer(0)
	url, err := srv.Start(addr)
	if err != nil {
		return "", err
	}
	g.rls, g.rlsURL = srv, url
	return url, nil
}

// RLSURL returns the catalog URL ("" before StartRLS).
func (g *Grid) RLSURL() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rlsURL
}

// AddServer starts a JClarens instance wired to the grid's RLS.
func (g *Grid) AddServer(cfg ServerConfig) (*Server, error) {
	g.mu.Lock()
	rlsURL := g.rlsURL
	g.mu.Unlock()

	if rlsURL != "" {
		c := rls.NewClient(rlsURL)
		c.Profile = cfg.Profile
		cfg.RLS = c
	}
	svc, front, url, err := dataaccess.Start(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{Name: cfg.Name, URL: url, Service: svc, Clarens: front}
	g.mu.Lock()
	g.servers = append(g.servers, s)
	g.mu.Unlock()
	return s, nil
}

// Servers lists the running instances.
func (g *Grid) Servers() []*Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Server, len(g.servers))
	copy(out, g.servers)
	return out
}

// Close tears the whole deployment down.
func (g *Grid) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	for _, s := range g.servers {
		if err := s.Service.Close(); err != nil && first == nil {
			first = err
		}
		if err := s.Clarens.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.servers = nil
	if g.rls != nil {
		if err := g.rls.Close(); err != nil && first == nil {
			first = err
		}
		g.rls = nil
	}
	return first
}
