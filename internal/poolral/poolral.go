// Package poolral reimplements the paper's POOL Relational Abstraction
// Layer wrapper (§4.7). The original was a C++ library reached over JNI
// exposing exactly two methods: one that initializes a service handler for
// a database given a connection string, username and password (keeping a
// list of initialized handles), and one that takes a connection string, an
// array of select fields, an array of table names and a WHERE clause and
// returns a 2-D array with the query result. This package preserves that
// call shape — the second method returns typed rows (QueryValuesContext)
// or a row stream (QueryStreamContext) instead of strings — and POOL's
// two defining restrictions that motivated the paper's Unity path: a query addresses tables within *one* database at a
// time, and only POOL-supported vendors (Oracle, MySQL, SQLite — not
// MS-SQL) are reachable.
package poolral

import (
	"context"
	"database/sql"
	"fmt"
	"strings"
	"sync"

	"gridrdb/internal/sqlengine"
)

// Connection strings have the form "<vendor>:<dsn>", e.g.
// "oracle:local://warehouse" or "mysql:tcp://host:port/tier2db". The
// vendor selects the dialect-checked driver, mimicking POOL's
// technology-prefixed contact strings.

// supportedVendors lists the RDBMS technologies POOL-RAL supports. MS-SQL
// is deliberately absent (the paper routes it through the JDBC/Unity
// path).
var supportedVendors = map[string]bool{
	"oracle": true,
	"mysql":  true,
	"sqlite": true,
}

// Supported reports whether the RAL can talk to a vendor.
func Supported(vendor string) bool { return supportedVendors[strings.ToLower(vendor)] }

// SupportedVendors returns the vendor list (sorted).
func SupportedVendors() []string { return []string{"mysql", "oracle", "sqlite"} }

// handle is one initialized database service handler.
type handle struct {
	db      *sql.DB
	dialect *sqlengine.Dialect
}

// RAL is the relational abstraction layer: a registry of initialized
// handles keyed by connection string. Safe for concurrent use.
type RAL struct {
	mu      sync.RWMutex
	handles map[string]*handle
}

// New returns an empty RAL.
func New() *RAL { return &RAL{handles: make(map[string]*handle)} }

// splitConn splits "<vendor>:<dsn>".
func splitConn(connString string) (vendor, dsn string, err error) {
	i := strings.Index(connString, ":")
	if i <= 0 {
		return "", "", fmt.Errorf("poolral: malformed connection string %q (want vendor:dsn)", connString)
	}
	return strings.ToLower(connString[:i]), connString[i+1:], nil
}

// InitHandler initializes a service handler for a new database using a
// connection string, a username and a password, and adds it to the list of
// previously initialized handles (method 1 of the JNI wrapper). Calling it
// again for the same connection string is a no-op.
func (r *RAL) InitHandler(connString, user, password string) error {
	vendor, dsn, err := splitConn(connString)
	if err != nil {
		return err
	}
	if !Supported(vendor) {
		return fmt.Errorf("poolral: vendor %q is not supported by POOL-RAL (supported: %s)",
			vendor, strings.Join(SupportedVendors(), ", "))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.handles[connString]; ok {
		return nil
	}
	dialect, err := sqlengine.DialectByName(vendor)
	if err != nil {
		return err
	}
	if user != "" && strings.HasPrefix(dsn, "tcp://") {
		dsn = "tcp://" + user + ":" + password + "@" + strings.TrimPrefix(dsn, "tcp://")
	}
	db, err := sql.Open(dialect.DriverName, dsn)
	if err != nil {
		return fmt.Errorf("poolral: open %s: %w", connString, err)
	}
	if err := db.Ping(); err != nil {
		db.Close()
		return fmt.Errorf("poolral: connect %s: %w", connString, err)
	}
	r.handles[connString] = &handle{db: db, dialect: dialect}
	return nil
}

func (r *RAL) handle(connString string) (*handle, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.handles[connString]
	if !ok {
		return nil, fmt.Errorf("poolral: no handle initialized for %q", connString)
	}
	return h, nil
}

// quoteField quotes a possibly table-qualified field in the handle's
// dialect; "*" passes through.
func quoteField(d *sqlengine.Dialect, f string) string {
	if f == "*" {
		return f
	}
	parts := strings.Split(f, ".")
	for i, p := range parts {
		if p != "*" {
			parts[i] = d.QuoteIdent(p)
		}
	}
	return strings.Join(parts, ".")
}

// buildSelect renders the RAL query in the target dialect. Multiple tables
// become a comma join (all within the one database, per POOL's model).
func buildSelect(d *sqlengine.Dialect, fields, tables []string, where string) (string, error) {
	if len(tables) == 0 {
		return "", fmt.Errorf("poolral: at least one table is required")
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(fields) == 0 {
		sb.WriteString("*")
	} else {
		for i, f := range fields {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteField(d, f))
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range tables {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(d.QuoteIdent(t))
	}
	if strings.TrimSpace(where) != "" {
		sb.WriteString(" WHERE ")
		sb.WriteString(where)
	}
	return sb.String(), nil
}

// QueryValuesContext executes the select described by (fields, tables,
// where) on the database identified by connString and returns a
// materialized result set, under a caller-supplied context.
func (r *RAL) QueryValuesContext(ctx context.Context, connString string, fields, tables []string, where string) (*sqlengine.ResultSet, error) {
	it, err := r.QueryStreamContext(ctx, connString, fields, tables, where)
	if err != nil {
		return nil, err
	}
	return sqlengine.Drain(it)
}

// QueryStreamContext executes the select described by (fields, tables,
// where) and returns its rows as an iterator. The statement runs on one
// connection of the handle's pool, which goes back to the pool as soon as
// the member engine has materialized the result; the iterator hands its
// rows on with no second copy (sqlengine.QueryDB). Cancelling ctx ends
// the iteration with ctx's error.
func (r *RAL) QueryStreamContext(ctx context.Context, connString string, fields, tables []string, where string) (sqlengine.RowIter, error) {
	h, err := r.handle(connString)
	if err != nil {
		return nil, err
	}
	query, err := buildSelect(h.dialect, fields, tables, where)
	if err != nil {
		return nil, err
	}
	return sqlengine.QueryDB(ctx, h.db, "poolral: "+connString, query, nil, nil)
}

// Close tears down all handles.
func (r *RAL) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for k, h := range r.handles {
		if err := h.db.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.handles, k)
	}
	return first
}
