package sqlengine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Column is a stored column definition.
type Column struct {
	Name       string
	Type       ColumnType
	TypeName   string // vendor spelling from the original DDL
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    Expr
}

// Table is a heap of rows plus secondary structures. All access goes
// through the owning Database's lock.
type Table struct {
	Name    string
	Columns []Column
	Rows    []Row
	// colIndex maps column name to position.
	colIndex map[string]int
	// Indexes are equality indexes (hash) on single or multiple columns.
	Indexes map[string]*Index
	// PrimaryKey column names (may be empty).
	PrimaryKey []string
	// pkOrdered records that the table has a one-column INTEGER or VARCHAR
	// primary key whose values are all non-NULL, of the column's kind, and
	// non-decreasing by Compare in row order, so a key range is a
	// sub-slice of Rows (see rangeRows).
	pkOrdered bool
}

// Index is a hash index from key tuple to row positions.
type Index struct {
	Name    string
	Columns []string
	Unique  bool
	// m maps the key (joined string form) to row indices into Table.Rows.
	m map[string][]int
}

// View is a named stored SELECT.
type View struct {
	Name string
	Stmt *SelectStmt
	Text string
}

// Database is one schema: a set of tables, views and indexes guarded by a
// RWMutex. It corresponds to one "database" in the paper's deployment.
type Database struct {
	mu     sync.RWMutex
	name   string
	tables map[string]*Table
	views  map[string]*View
	// pathHook, when set (by tests, under mu), observes the access path
	// each SELECT takes to read a table.
	pathHook func(table, path string)
}

// NewDatabase creates an empty database with the given name.
func NewDatabase(name string) *Database {
	return &Database{
		name:   name,
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// TableNames returns the sorted table names.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (t *Table) colPos(name string) (int, bool) {
	i, ok := t.colIndex[name]
	return i, ok
}

func (t *Table) rebuildColIndex() {
	t.colIndex = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		t.colIndex[c.Name] = i
	}
}

// appendIndexKey appends the key of the tuple vals for the hash
// structures (indexes, hash joins, GROUP BY, DISTINCT) to buf: the frame
// cell (frame.go) of each value after keyValue, so two tuples of the same
// classes get equal keys exactly when Compare equates them part by part
// (docs/INVARIANTS.md). Cells are self-delimiting: the tuple needs no
// separator. A lookup of m[string(appendIndexKey(buf[:0], ...))] with a
// reused buf does not allocate.
func appendIndexKey(buf []byte, vals ...Value) []byte {
	for _, v := range vals {
		buf = appendFrameCell(buf, keyValue(v))
	}
	return buf
}

// keyValue is the value a key encodes for v: a bool is the int 0 or 1, a
// float that is integral and within the int64 range is that int, and every
// NaN is one NaN; any other value is itself.
func keyValue(v Value) Value {
	switch v.Kind {
	case KindBool:
		return NewInt(int64(v.aux))
	case KindFloat:
		switch f := v.Float; {
		case f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f):
			return NewInt(int64(f))
		case math.IsNaN(f):
			return NewFloat(math.NaN())
		}
	}
	return v
}

// pkKey returns the column position of a primary key a range can be read
// over — one INTEGER or VARCHAR column — or false.
func (t *Table) pkKey() (int, bool) {
	if len(t.PrimaryKey) != 1 {
		return 0, false
	}
	ci, ok := t.colPos(t.PrimaryKey[0])
	if !ok {
		return 0, false
	}
	switch t.Columns[ci].Type.Kind {
	case KindInt, KindString:
		return ci, true
	}
	return 0, false
}

// setRows makes rows the table's contents, and is the only code that
// assigns t.Rows or writes an index map. rows[:from] must be the current
// rows: an append passes from = len(t.Rows), and only the rows past from
// are indexed; from = 0 rebuilds every index. Every unique index is
// checked against the new contents first, so on a violation the table,
// its indexes and pkOrdered stay exactly as they were. No stored row, nor
// a slot below len(t.Rows), is ever written in place: a reader holding
// t.Rows (a result, a transaction's before-image) keeps what it saw.
func (t *Table) setRows(rows []Row, from int) error {
	for _, row := range rows[from:] {
		if len(row) != len(t.Columns) {
			// A before-image taken before ALTER TABLE ADD COLUMN.
			return fmt.Errorf("sqlengine: table %q has %d columns, a row %d values", t.Name, len(t.Columns), len(row))
		}
	}
	// A rebuild checks each unique index while it fills a new map. An
	// append keeps the keys of the rows from from on (keys[i] for index
	// i), and checks those of a unique index that hold no NULL against
	// the rows before from and, sorted, against each other.
	idxs := make([]*Index, 0, len(t.Indexes))
	maps := make([]map[string][]int, 0, len(t.Indexes))
	keys := make([][]string, 0, len(t.Indexes))
	var buf []byte
	for _, idx := range t.Indexes {
		cols := make([]int, len(idx.Columns))
		for i, c := range idx.Columns {
			cols[i], _ = t.colPos(c)
		}
		m, ks, check := idx.m, []string(nil), []string(nil)
		switch {
		case from == 0:
			m = make(map[string][]int, len(rows))
		case idx.Unique:
			check = make([]string, 0, len(rows)-from)
			fallthrough
		default:
			ks = make([]string, 0, len(rows)-from)
		}
		for ri := from; ri < len(rows); ri++ {
			buf = buf[:0]
			hasNull := false
			for _, ci := range cols {
				buf = appendIndexKey(buf, rows[ri][ci])
				hasNull = hasNull || rows[ri][ci].IsNull()
			}
			key, unique := string(buf), idx.Unique && !hasNull
			switch {
			case unique && len(m[key]) > 0:
				return fmt.Errorf("sqlengine: unique constraint %q violated on table %q", idx.Name, t.Name)
			case from == 0:
				m[key] = append(m[key], ri)
				continue
			case unique:
				check = append(check, key)
			}
			ks = append(ks, key)
		}
		slices.Sort(check)
		for j := 1; j < len(check); j++ {
			if check[j] == check[j-1] {
				return fmt.Errorf("sqlengine: unique constraint %q violated on table %q", idx.Name, t.Name)
			}
		}
		idxs, maps, keys = append(idxs, idx), append(maps, m), append(keys, ks)
	}
	// pkOrdered holds when every key is of the column's kind (not NULL,
	// not stored unconverted) and no key is below the one before it.
	ci, ordered := t.pkKey()
	ordered = ordered && (from == 0 || t.pkOrdered)
	for ri := from; ordered && ri < len(rows); ri++ {
		v := rows[ri][ci]
		ordered = v.Kind == t.Columns[ci].Type.Kind && (ri == 0 || Compare(rows[ri-1][ci], v) <= 0)
	}
	// Every check has passed: write.
	for i, idx := range idxs {
		for j, key := range keys[i] {
			maps[i][key] = append(maps[i][key], from+j)
		}
		idx.m = maps[i]
	}
	t.Rows, t.pkOrdered = rows, ordered
	return nil
}

// lookupIndex probes, among the indexes whose columns all appear in cols
// (in any order), the one that finds the fewest rows for the key values
// vals (parallel to cols). It returns those rows' positions, ascending,
// and whether any index applied.
func (t *Table) lookupIndex(cols []string, vals []Value) ([]int, bool) {
	var best []int
	found := false
	var key []Value
	for _, idx := range t.Indexes {
		key = key[:0]
		for _, c := range idx.Columns {
			i := slices.Index(cols, c)
			if i < 0 {
				break
			}
			key = append(key, vals[i])
		}
		if len(key) < len(idx.Columns) {
			continue
		}
		if pos := idx.m[string(appendIndexKey(nil, key...))]; !found || len(pos) < len(best) {
			best, found = pos, true
		}
	}
	return best, found
}
