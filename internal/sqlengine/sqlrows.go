package sqlengine

import (
	"database/sql"
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

// SQLRows streams a live *sql.Rows as a RowIter. name prefixes its errors
// (the source or connection the rows come from); release, when non-nil,
// runs once when the iterator is closed, after the rows — the caller's
// hold on a connection or a load counter. If the rows cannot report their
// columns they are closed and released before the error returns.
func SQLRows(rows *sql.Rows, name string, release func() error) (RowIter, error) {
	it := &sqlRows{rows: rows, name: name, release: release}
	cols, err := rows.Columns()
	if err != nil {
		it.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	it.cols = cols
	it.raw = make([]interface{}, len(cols))
	it.ptrs = make([]interface{}, len(cols))
	for i := range it.raw {
		it.ptrs[i] = &it.raw[i]
	}
	return it, nil
}

type sqlRows struct {
	rows    *sql.Rows
	name    string
	cols    []string
	release func() error
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
		if rerr := it.release(); err == nil {
			err = rerr
		}
	}
	return err
}
