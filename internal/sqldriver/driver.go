// Package sqldriver registers database/sql drivers for the gridrdb engine
// family. It plays the role JDBC drivers play in the paper: one driver name
// per vendor ("gridsql-oracle", "gridsql-mysql", "gridsql-mssql",
// "gridsql-sqlite"), each speaking that vendor's SQL dialect, plus a
// generic "gridsql" driver.
//
// DSN grammar:
//
//	local://<database>                          in-process engine (registry)
//	tcp://[user:password@]host:port/<database>[?profile=lan100]   remote engine via wire
//	file://<path>                               SQLite-style file database
//
// Engines reached via local:// must first be registered with
// RegisterEngine. file:// DSNs load a snapshot produced by Engine.SaveFile
// and save it back on Close.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"

	"gridrdb/internal/netsim"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/wire"
)

// ---- engine registry (in-process "servers") ----

var (
	regMu   sync.RWMutex
	engines = map[string]*sqlengine.Engine{}
)

// RegisterEngine makes an in-process engine reachable via local://<name>.
func RegisterEngine(e *sqlengine.Engine) {
	regMu.Lock()
	defer regMu.Unlock()
	engines[e.Name()] = e
}

// UnregisterEngine removes a local engine.
func UnregisterEngine(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(engines, name)
}

// LookupEngine returns a registered in-process engine.
func LookupEngine(name string) (*sqlengine.Engine, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := engines[name]
	return e, ok
}

// ---- driver registration ----

// Driver implements database/sql/driver.Driver for one dialect.
type Driver struct {
	// Dialect constrains which engines this driver may talk to; nil means
	// any (the generic driver).
	Dialect *sqlengine.Dialect
}

func init() {
	sql.Register("gridsql", &Driver{})
	sql.Register("gridsql-ansi", &Driver{Dialect: sqlengine.DialectANSI})
	sql.Register("gridsql-oracle", &Driver{Dialect: sqlengine.DialectOracle})
	sql.Register("gridsql-mysql", &Driver{Dialect: sqlengine.DialectMySQL})
	sql.Register("gridsql-mssql", &Driver{Dialect: sqlengine.DialectMSSQL})
	sql.Register("gridsql-sqlite", &Driver{Dialect: sqlengine.DialectSQLite})
}

// backend abstracts local sessions and remote wire clients.
type backend interface {
	// query opens a statement's rows: a local SELECT's operator pipeline
	// (sqlengine.Session.Open), a remote answer received whole.
	query(ctx context.Context, sql string, params []sqlengine.Value) (sqlengine.RowIter, error)
	exec(sql string, params []sqlengine.Value) (int64, error)
	close() error
	// valid reports whether the backend can still carry a statement.
	valid() bool
}

type localBackend struct {
	sess *sqlengine.Session
}

func (b *localBackend) query(ctx context.Context, sqlText string, params []sqlengine.Value) (sqlengine.RowIter, error) {
	return b.sess.Open(ctx, sqlText, params)
}

func (b *localBackend) exec(sqlText string, params []sqlengine.Value) (int64, error) {
	_, n, err := b.sess.Run(sqlText, params...)
	return n, err
}

func (b *localBackend) close() error { return b.sess.Rollback() }
func (b *localBackend) valid() bool  { return true }

// remoteBackend is a wire client. Once its connection is broken it returns
// driver.ErrBadConn before sending anything, so database/sql may retry the
// statement on another connection.
type remoteBackend struct{ c *wire.Client }

func (b *remoteBackend) query(_ context.Context, sqlText string, params []sqlengine.Value) (sqlengine.RowIter, error) {
	if b.c.Broken() {
		return nil, driver.ErrBadConn
	}
	rs, err := b.c.Query(sqlText, params...)
	if err != nil {
		return nil, err
	}
	return sqlengine.SliceIter(rs), nil
}
func (b *remoteBackend) exec(sqlText string, params []sqlengine.Value) (int64, error) {
	if b.c.Broken() {
		return 0, driver.ErrBadConn
	}
	return b.c.Exec(sqlText, params...)
}
func (b *remoteBackend) close() error { return b.c.Close() }
func (b *remoteBackend) valid() bool  { return b.c.Alive() }

type fileBackend struct {
	localBackend
	eng  *sqlengine.Engine
	path string
}

func (b *fileBackend) close() error {
	if err := b.localBackend.close(); err != nil {
		return err
	}
	return b.eng.SaveFile(b.path)
}

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("sqldriver: bad DSN %q: %w", dsn, err)
	}
	checkDialect := func(e *sqlengine.Engine) error {
		if d.Dialect != nil && e.Dialect() != d.Dialect {
			return fmt.Errorf("sqldriver: driver %q cannot talk to %s database %q",
				d.Dialect.DriverName, e.Dialect().Name, e.Name())
		}
		return nil
	}
	switch u.Scheme {
	case "local":
		name := u.Host
		if name == "" {
			name = strings.TrimPrefix(u.Path, "/")
		}
		e, ok := LookupEngine(name)
		if !ok {
			return nil, fmt.Errorf("sqldriver: no local engine %q registered", name)
		}
		if err := checkDialect(e); err != nil {
			return nil, err
		}
		return &conn{b: &localBackend{sess: e.NewSession()}}, nil
	case "tcp":
		dbName := strings.TrimPrefix(u.Path, "/")
		hello := wire.Hello{Database: dbName}
		if u.User != nil {
			hello.User = u.User.Username()
			hello.Password, _ = u.User.Password()
		}
		profile := netsim.ProfileByName(u.Query().Get("profile"))
		c, err := wire.Dial(u.Host, hello, profile, nil)
		if err != nil {
			return nil, err
		}
		return &conn{b: &remoteBackend{c: c}}, nil
	case "file":
		path := u.Host + u.Path
		if u.Opaque != "" {
			path = u.Opaque
		}
		e, err := sqlengine.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("sqldriver: open file db: %w", err)
		}
		if err := checkDialect(e); err != nil {
			return nil, err
		}
		return &conn{b: &fileBackend{localBackend: localBackend{sess: e.NewSession()}, eng: e, path: path}}, nil
	}
	return nil, fmt.Errorf("sqldriver: unsupported DSN scheme %q", u.Scheme)
}

// ---- connection ----

type conn struct {
	b      backend
	closed bool
}

var _ driver.Conn = (*conn)(nil)
var _ driver.QueryerContext = (*conn)(nil)
var _ driver.ExecerContext = (*conn)(nil)
var _ driver.NamedValueChecker = (*conn)(nil)
var _ driver.Validator = (*conn)(nil)
var _ driver.SessionResetter = (*conn)(nil)
var _ sqlengine.ValueQueryer = (*conn)(nil)

// IsValid implements driver.Validator: database/sql drops a connection
// whose wire link broke instead of pooling it.
func (c *conn) IsValid() bool { return !c.closed && c.b.valid() }

// ResetSession implements driver.SessionResetter: before database/sql
// reuses a pooled connection, one whose tcp:// link closed while it sat
// idle is driver.ErrBadConn, so the statement runs on a fresh connection.
func (c *conn) ResetSession(context.Context) error {
	if !c.IsValid() {
		return driver.ErrBadConn
	}
	return nil
}

// CheckNamedValue lets callers pass sqlengine.Value (and the usual basic
// Go types) directly as query parameters.
func (c *conn) CheckNamedValue(nv *driver.NamedValue) error {
	v, err := sqlengine.ValueOf(nv.Value)
	if err != nil {
		return err
	}
	nv.Value = valueToDriver(v)
	return nil
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	if c.closed {
		return nil, driver.ErrBadConn
	}
	return &stmt{c: c, query: query}, nil
}

func (c *conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.b.close()
}

func (c *conn) Begin() (driver.Tx, error) {
	if _, err := c.b.exec("BEGIN", nil); err != nil {
		return nil, err
	}
	return &tx{c: c}, nil
}

// QueryValues implements sqlengine.ValueQueryer: the backend's rows go to
// the caller as they are, with no driver.Value boxing.
func (c *conn) QueryValues(ctx context.Context, query string, params []sqlengine.Value) (sqlengine.RowIter, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.b.query(ctx, query, params)
}

func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	params, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	it, err := c.QueryValues(ctx, query, params)
	if err != nil {
		return nil, err
	}
	return &rows{it: it}, nil
}

func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	params, err := namedToValues(args)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n, err := c.b.exec(query, params)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: n}, nil
}

type tx struct{ c *conn }

func (t *tx) Commit() error {
	_, err := t.c.b.exec("COMMIT", nil)
	return err
}

func (t *tx) Rollback() error {
	_, err := t.c.b.exec("ROLLBACK", nil)
	return err
}

// ---- statements ----

type stmt struct {
	c     *conn
	query string
}

func (s *stmt) Close() error { return nil }

// NumInput is -1: database/sql leaves the argument count to the engine,
// as it does for a statement it runs unprepared, and the engine reports a
// parameter the statement reads and was not given. A count of the text's
// '?' would also count one inside a string literal or quoted name.
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	params, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	n, err := s.c.b.exec(s.query, params)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: n}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	params, err := driverToValues(args)
	if err != nil {
		return nil, err
	}
	it, err := s.c.b.query(context.Background(), s.query, params)
	if err != nil {
		return nil, err
	}
	return &rows{it: it}, nil
}

type result struct{ rowsAffected int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("sqldriver: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return r.rowsAffected, nil }

// ---- rows ----

// rows serves a statement's iterator to database/sql, one row per Next.
type rows struct{ it sqlengine.RowIter }

func (r *rows) Columns() []string { return r.it.Columns() }
func (r *rows) Close() error      { return r.it.Close() }

func (r *rows) Next(dest []driver.Value) error {
	row, err := r.it.Next()
	if err != nil {
		return err
	}
	for i, v := range row {
		dest[i] = valueToDriver(v)
	}
	return nil
}

// ---- value conversion ----

func valueToDriver(v sqlengine.Value) driver.Value {
	switch v.Kind {
	case sqlengine.KindNull:
		return nil
	case sqlengine.KindInt:
		return v.Int
	case sqlengine.KindFloat:
		return v.Float
	case sqlengine.KindString:
		return v.Str()
	case sqlengine.KindBool:
		return v.Bool()
	case sqlengine.KindTime:
		return v.Time()
	case sqlengine.KindBytes:
		return v.Bytes()
	}
	return nil
}

func driverToValues(args []driver.Value) ([]sqlengine.Value, error) {
	out := make([]sqlengine.Value, len(args))
	for i, a := range args {
		v, err := sqlengine.ValueOf(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func namedToValues(args []driver.NamedValue) ([]sqlengine.Value, error) {
	out := make([]sqlengine.Value, len(args))
	for _, a := range args {
		v, err := sqlengine.ValueOf(a.Value)
		if err != nil {
			return nil, err
		}
		if a.Ordinal < 1 || a.Ordinal > len(args) {
			return nil, fmt.Errorf("sqldriver: bad parameter ordinal %d", a.Ordinal)
		}
		out[a.Ordinal-1] = v
	}
	return out, nil
}
