package sqlengine

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"time"
)

// ValueOf converts a Go value — a database/sql argument, or a column
// scanned into an interface{} — to a Value.
func ValueOf(x interface{}) (Value, error) {
	switch v := x.(type) {
	case nil:
		return Null(), nil
	case int64:
		return NewInt(v), nil
	case int:
		return NewInt(int64(v)), nil
	case float64:
		return NewFloat(v), nil
	case string:
		return NewString(v), nil
	case bool:
		return NewBool(v), nil
	case []byte:
		return NewBytes(v), nil
	case time.Time:
		return NewTime(v), nil
	case Value:
		return v, nil
	}
	return Null(), fmt.Errorf("sqlengine: unsupported Go type %T", x)
}

// ValueQueryer is implemented by a database/sql driver connection that
// runs a statement straight to Values: gridrdb's own drivers, for
// local://, file:// and tcp:// engines alike. QueryDB reads a member
// database through it with no driver.Value boxing and no second copy of
// each row.
type ValueQueryer interface {
	// QueryValues runs one statement and returns its rows, which nothing
	// else holds. The iterator must not read the connection, which may
	// carry another statement while it is open: an in-process engine's
	// SELECT is its operator pipeline over the catalog pinned when it
	// started (Session.Open), a tcp:// answer is received whole. A
	// connection that can no longer carry a statement returns
	// driver.ErrBadConn before it sends anything.
	QueryValues(ctx context.Context, query string, params []Value) (RowIter, error)
}

// badConnRetries is how many more times QueryDB runs a statement whose
// connection answered driver.ErrBadConn, each time on another connection
// (database/sql's own count).
const badConnRetries = 2

// QueryDB runs a SELECT on db and returns its rows as a RowIter. name
// prefixes its errors (the source or connection the rows come from);
// release, when non-nil, runs once: when the iterator is closed, or
// before QueryDB's own error returns — the caller's hold on a load
// counter.
//
// When db's driver connection is a ValueQueryer, the statement opens
// inside Conn.Raw and the connection goes back to the pool at once: the
// iterator reads none of it. An in-process member engine runs its
// pipeline as the iterator is pulled, under ctx, and a row error surfaces
// at the Next that reaches the row; the rows are fresh output whose
// string and bytes payloads are immutable, so nothing copies them. A
// connection that answers driver.ErrBadConn is dropped and the statement
// run again on another, as database/sql does. Any other driver is read
// through QueryContext and Scan, the paper's "any JDBC driver" path.
// Either way a cancelled ctx ends the iteration with ctx's error.
func QueryDB(ctx context.Context, db *sql.DB, name, query string, params []Value, release func()) (RowIter, error) {
	it, typed, err := queryValues(ctx, db, query, params)
	for i := 0; i < badConnRetries && errors.Is(err, driver.ErrBadConn); i++ {
		it, typed, err = queryValues(ctx, db, query, params)
	}
	switch {
	case err != nil:
	case typed:
		it = &valueRows{RowIter: it, ctx: ctx, done: ctx.Done(), name: name, release: release}
	default:
		it, err = querySQL(ctx, db, name, query, params, release)
	}
	if err != nil {
		if release != nil {
			release()
		}
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return it, nil
}

// queryValues opens query through one pooled connection's ValueQueryer;
// typed is false, and nothing ran, when there is no connection or the
// driver has no ValueQueryer.
func queryValues(ctx context.Context, db *sql.DB, query string, params []Value) (it RowIter, typed bool, err error) {
	c, err := db.Conn(ctx)
	if err != nil {
		return nil, false, err
	}
	defer c.Close()
	err = c.Raw(func(dc any) error {
		q, ok := dc.(ValueQueryer)
		if !ok {
			return nil
		}
		typed = true
		var qerr error
		it, qerr = q.QueryValues(ctx, query, params)
		return qerr
	})
	return it, typed, err
}

// valueRows hands on a member engine's rows, checking ctx before each and
// prefixing its errors with name.
type valueRows struct {
	RowIter
	ctx     context.Context
	done    <-chan struct{}
	name    string
	release func()
}

func (it *valueRows) Next() (Row, error) {
	select {
	case <-it.done:
		return nil, fmt.Errorf("%s: %w", it.name, it.ctx.Err())
	default:
	}
	row, err := it.RowIter.Next()
	if err != nil && err != io.EOF {
		err = fmt.Errorf("%s: %w", it.name, err)
	}
	return row, err
}

func (it *valueRows) Close() error {
	err := it.RowIter.Close()
	if it.release != nil {
		it.release()
		it.release = nil
	}
	return err
}

// querySQL streams a database/sql query of a driver that has no
// ValueQueryer: each Next scans one row and converts its cells.
func querySQL(ctx context.Context, db *sql.DB, name, query string, params []Value, release func()) (RowIter, error) {
	args := make([]interface{}, len(params))
	for i, p := range params {
		args[i] = p
	}
	rows, err := db.QueryContext(ctx, query, args...)
	if err != nil {
		return nil, err
	}
	cols, err := rows.Columns()
	if err != nil {
		rows.Close()
		return nil, err
	}
	it := &sqlRows{rows: rows, name: name, cols: cols, release: release,
		raw: make([]interface{}, len(cols)), ptrs: make([]interface{}, len(cols))}
	for i := range it.raw {
		it.ptrs[i] = &it.raw[i]
	}
	return it, nil
}

type sqlRows struct {
	rows    *sql.Rows
	name    string
	cols    []string
	release func()
	closed  bool
	// raw receives each row's cells and ptrs points Scan at raw; both are
	// reused across rows because Scan copies []byte cells into *any
	// destinations and ValueOf copies what it keeps.
	raw, ptrs []interface{}
}

func (it *sqlRows) Columns() []string { return it.cols }

func (it *sqlRows) Next() (Row, error) {
	if !it.rows.Next() {
		if err := it.rows.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		return nil, io.EOF
	}
	if err := it.rows.Scan(it.ptrs...); err != nil {
		return nil, fmt.Errorf("%s: %w", it.name, err)
	}
	row := make(Row, len(it.cols))
	for i, x := range it.raw {
		v, err := ValueOf(x)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", it.name, err)
		}
		row[i] = v
	}
	return row, nil
}

func (it *sqlRows) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	err := it.rows.Close()
	if it.release != nil {
		it.release()
	}
	return err
}
