package sqlengine

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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

// Table is one version of a table. Once published it is never changed: a
// write changes a copy (catalog.writable) that shares its rows (setRows).
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
	id        uint64 // set by CREATE TABLE (or Load), kept by later versions
}

var tableIDs atomic.Uint64 // numbers CREATE TABLEs

// Index is a hash index from key tuple to row positions. A rebuild makes a
// new Index; an append writes m in place, under mu (setRows).
type Index struct {
	Name    string
	Columns []string
	Unique  bool
	mu      sync.RWMutex
	// m maps the key (joined string form) to row indices into Table.Rows.
	m map[string][]int
}

// View is a named stored SELECT.
type View struct {
	Name string
	Stmt *SelectStmt
	Text string
}

// catalog is one version of a database's tables and views. Once
// published it is never changed, nor is any Table it holds.
type catalog struct {
	db     *Database
	tables map[string]*Table
	views  map[string]*View
}

// writable replaces table name in w, a catalog not yet published, with a
// copy a write may change (its Indexes map cloned; its rows and Index
// values shared), and returns it.
func (w *catalog) writable(name string) (*Table, error) {
	t, ok := w.tables[name]
	if !ok {
		return nil, fmt.Errorf("sqlengine: %s: no such table %q", w.db.name, name)
	}
	c := *t
	c.Indexes = maps.Clone(t.Indexes)
	w.tables[name] = &c
	return &c, nil
}

// Database is one schema, one "database" in the paper's deployment. A
// read (a SELECT with its subqueries and views, SHOW TABLES, DESCRIBE,
// BEGIN, Save) runs on the catalog published when it starts (pin), with
// no lock; writes run one at a time and publish on success (write).
type Database struct {
	name string
	cur  atomic.Pointer[catalog]
	mu   sync.Mutex // held by the running write
	// pathHook, when set (by tests, before any query), observes the
	// access path each SELECT takes to read a table.
	pathHook func(table, path string)
}

// NewDatabase creates an empty database with the given name.
func NewDatabase(name string) *Database {
	db := &Database{name: name}
	db.cur.Store(&catalog{db: db, tables: make(map[string]*Table), views: make(map[string]*View)})
	return db
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// TableNames returns the sorted table names.
func (db *Database) TableNames() []string { return slices.Sorted(maps.Keys(db.pin().tables)) }

// pin returns the published catalog, which no write changes.
func (db *Database) pin() *catalog { return db.cur.Load() }

// write runs fn, one write at a time, on cur, the catalog published when
// it took the lock, which the statement reads, and w, a copy of cur that
// fn changes and that is published only if fn succeeds.
func (db *Database) write(fn func(cur, w *catalog) (int64, error)) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	cur := db.pin()
	w := &catalog{db: db, tables: maps.Clone(cur.tables), views: maps.Clone(cur.views)}
	n, err := fn(cur, w)
	if err == nil {
		db.cur.Store(w)
	}
	return n, err
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

// setRows makes rows the contents of t, a version not yet published
// (catalog.writable), and is the only code that assigns t.Rows or writes
// an index map. rows[:from] must be the current rows. from = 0 rebuilds,
// into a new Index per index. from = len(t.Rows) appends: it indexes the
// rows past from in place, into maps earlier versions share and read only
// below their own length (lookupIndex), so it must be the last step of
// its write that can fail. Every unique index is checked before anything
// is written, so on a violation t stays as it was. No stored row, nor a
// slot below len(t.Rows), is written in place: a reader holding t.Rows (a
// result, a pinned version) keeps what it saw.
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
	keys := make([][]string, 0, len(t.Indexes))
	var buf []byte
	for _, idx := range t.Indexes {
		cols := make([]int, len(idx.Columns))
		for i, c := range idx.Columns {
			cols[i], _ = t.colPos(c)
		}
		ks, check := []string(nil), []string(nil)
		switch {
		case from == 0:
			idx = &Index{Name: idx.Name, Columns: idx.Columns, Unique: idx.Unique, m: make(map[string][]int, len(rows))}
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
			case unique && len(idx.m[key]) > 0:
				return fmt.Errorf("sqlengine: unique constraint %q violated on table %q", idx.Name, t.Name)
			case from == 0:
				idx.m[key] = append(idx.m[key], ri)
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
		idxs, keys = append(idxs, idx), append(keys, ks)
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
		if from == 0 {
			t.Indexes[idx.Name] = idx
			continue
		}
		idx.mu.Lock()
		for j, key := range keys[i] {
			idx.m[key] = append(idx.m[key], from+j)
		}
		idx.mu.Unlock()
	}
	t.Rows, t.pkOrdered = rows, ordered
	return nil
}

// lookupIndex probes, among the indexes whose columns all appear in cols
// (in any order), the one that finds the fewest rows for the key values
// vals (parallel to cols). It returns those rows' positions, ascending,
// and whether any index applied. It holds an index's lock for the map
// lookup only, and keeps the positions below len(t.Rows): the rest are a
// later version's appends.
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
		k := appendIndexKey(nil, key...)
		idx.mu.RLock()
		pos := idx.m[string(k)]
		idx.mu.RUnlock()
		pos = pos[:sort.SearchInts(pos, len(t.Rows))]
		if !found || len(pos) < len(best) {
			best, found = pos, true
		}
	}
	return best, found
}
