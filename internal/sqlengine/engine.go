package sqlengine

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
)

// Engine is one emulated database server instance: a Database plus the
// vendor Dialect it speaks. Engines are safe for concurrent use.
type Engine struct {
	db      *Database
	dialect *Dialect

	mu    sync.Mutex
	users map[string]string // username -> password; empty means open
}

// NewEngine creates an empty database engine speaking the given dialect.
func NewEngine(name string, dialect *Dialect) *Engine {
	if dialect == nil {
		dialect = DialectANSI
	}
	return &Engine{db: NewDatabase(name), dialect: dialect, users: make(map[string]string)}
}

// Name returns the database name.
func (e *Engine) Name() string { return e.db.Name() }

// Dialect returns the vendor dialect this engine speaks.
func (e *Engine) Dialect() *Dialect { return e.dialect }

// Database exposes read-only catalog metadata.
func (e *Engine) Database() *Database { return e.db }

// AddUser registers credentials. With no users registered the engine
// accepts any credentials (like the paper's test marts).
func (e *Engine) AddUser(user, password string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.users[user] = password
}

// Authenticate checks credentials.
func (e *Engine) Authenticate(user, password string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.users) == 0 {
		return nil
	}
	if pw, ok := e.users[user]; ok && pw == password {
		return nil
	}
	return fmt.Errorf("sqlengine: %s: authentication failed for user %q", e.db.Name(), user)
}

// Session is one connection's view of the engine, carrying transaction
// state. Sessions are not safe for concurrent use (like a driver conn).
type Session struct {
	eng *Engine
	// tx is the catalog BEGIN pinned, whose rows ROLLBACK restores, while
	// a transaction is open; nil otherwise. DDL is not transactional.
	tx *catalog
}

// NewSession opens a session.
func (e *Engine) NewSession() *Session { return &Session{eng: e} }

// Query parses and executes a statement, returning rows for SELECT-like
// statements and an empty result (with RowsAffected) otherwise.
func (e *Engine) Query(sql string, params ...Value) (*ResultSet, error) {
	rs, _, err := e.NewSession().Run(sql, params...)
	return rs, err
}

// Exec parses and executes a statement, returning the affected row count.
func (e *Engine) Exec(sql string, params ...Value) (int64, error) {
	_, n, err := e.NewSession().Run(sql, params...)
	return n, err
}

// ExecScript runs a semicolon-separated script, stopping at the first
// error.
func (e *Engine) ExecScript(script string) error {
	stmts, err := NewParser(e.dialect).ParseScript(script)
	if err != nil {
		return err
	}
	s := e.NewSession()
	for _, st := range stmts {
		if _, _, err := s.RunStmt(st, nil); err != nil {
			return err
		}
	}
	return nil
}

// Run parses and executes one statement in this session.
func (s *Session) Run(sql string, params ...Value) (*ResultSet, int64, error) {
	st, err := NewParser(s.eng.dialect).ParseStatement(sql)
	if err != nil {
		return nil, 0, err
	}
	return s.RunStmt(st, params)
}

// Open parses one statement and returns its rows as an iterator. A SELECT
// comes back as its operator pipeline, unstarted: each Next runs it as
// far as the next row, under ctx, over the catalog published when Open
// ran. The iterator reads that catalog only, never the session, so the
// session may carry other statements while it is open; it holds the
// catalog's table versions until it is closed. Any other statement runs
// to its end here, and its result (empty for a write) comes back as a
// SliceIter.
func (s *Session) Open(ctx context.Context, sql string, params []Value) (RowIter, error) {
	st, err := NewParser(s.eng.dialect).ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	if x, ok := st.(*SelectStmt); ok {
		return (&executor{ctx: ctx, cat: s.eng.db.pin()}).openSelect(x, &evalEnv{params: params})
	}
	rs, _, err := s.RunStmt(st, params)
	if err != nil {
		return nil, err
	}
	if rs == nil {
		rs = &ResultSet{}
	}
	return SliceIter(rs), nil
}

// RunStmt executes a parsed statement in this session. A read runs on the
// catalog published when it starts; a write runs under Database.write.
func (s *Session) RunStmt(st Statement, params []Value) (*ResultSet, int64, error) {
	db := s.eng.db
	switch x := st.(type) {
	case *SelectStmt:
		ex := &executor{ctx: context.Background(), cat: db.pin()}
		rs, err := ex.execSelect(x, &evalEnv{params: params})
		return rs, 0, err
	case *TxStmt:
		return nil, 0, s.execTx(x)
	case *ShowTablesStmt:
		cat := db.pin()
		rs := &ResultSet{Columns: []string{"name", "type"}}
		for _, n := range slices.Sorted(maps.Keys(cat.tables)) {
			rs.Rows = append(rs.Rows, Row{NewString(n), NewString("table")})
		}
		for _, n := range slices.Sorted(maps.Keys(cat.views)) {
			rs.Rows = append(rs.Rows, Row{NewString(n), NewString("view")})
		}
		return rs, 0, nil
	case *DescribeStmt:
		t, ok := db.pin().tables[x.Table]
		if !ok {
			return nil, 0, fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Table)
		}
		rs := &ResultSet{Columns: []string{"column", "type", "nullable", "key"}}
		for _, c := range t.Columns {
			key, nullable := "", "YES"
			if c.PrimaryKey {
				key = "PRI"
			} else if c.Unique {
				key = "UNI"
			}
			if c.NotNull {
				nullable = "NO"
			}
			rs.Rows = append(rs.Rows, Row{
				NewString(c.Name), NewString(s.eng.dialect.TypeName(c.Type)),
				NewString(nullable), NewString(key),
			})
		}
		return rs, 0, nil
	}
	n, err := db.write(func(cur, w *catalog) (int64, error) { return execWrite(st, params, cur, w) })
	return nil, n, err
}

// execWrite runs one write statement: it reads cur and changes w
// (Database.write).
func execWrite(st Statement, params []Value, cur, w *catalog) (int64, error) {
	switch x := st.(type) {
	case *InsertStmt:
		return execInsert(x, params, cur, w)
	case *UpdateStmt:
		return execRewrite(x.Table, x.Where, x.Set, params, cur, w)
	case *DeleteStmt:
		return execRewrite(x.Table, x.Where, nil, params, cur, w)
	case *TruncateStmt:
		return execRewrite(x.Table, nil, nil, nil, cur, w)
	case *CreateTableStmt:
		return 0, execCreateTable(x, w)
	case *CreateViewStmt:
		if _, exists := w.views[x.View]; exists {
			return 0, fmt.Errorf("sqlengine: %s: view %q already exists", w.db.name, x.View)
		}
		if _, exists := w.tables[x.View]; exists {
			return 0, fmt.Errorf("sqlengine: %s: %q already exists as a table", w.db.name, x.View)
		}
		w.views[x.View] = &View{Name: x.View, Stmt: x.Select, Text: x.Text}
		return 0, nil
	case *CreateIndexStmt:
		return 0, execCreateIndex(x, w)
	case *DropStmt:
		return 0, execDrop(x, w)
	case *AlterAddColumnStmt:
		return 0, execAlterAdd(x, w)
	}
	return 0, fmt.Errorf("sqlengine: unsupported statement %T", st)
}

// ---- transactions ----

func (s *Session) execTx(x *TxStmt) error {
	switch {
	case x.Kind == "BEGIN" && s.tx != nil:
		return fmt.Errorf("sqlengine: transaction already open")
	case x.Kind != "BEGIN" && s.tx == nil:
		return fmt.Errorf("sqlengine: no transaction open")
	}
	switch x.Kind {
	case "BEGIN":
		s.tx = s.eng.db.pin()
		return nil
	case "COMMIT":
		s.tx = nil
		return nil
	case "ROLLBACK":
		// A table is restored while it is the CREATE BEGIN saw (its id).
		// DDL since BEGIN can refuse a table's before-image: that table
		// keeps its rows. The before-image is clipped, so a later append
		// cannot write a slot a version since BEGIN holds.
		var err error
		s.eng.db.write(func(cur, w *catalog) (int64, error) {
			for name, old := range s.tx.tables {
				if t, ok := cur.tables[name]; ok && t.id == old.id && t != old {
					t, _ = w.writable(name)
					err = cmp.Or(err, t.setRows(slices.Clip(old.Rows), 0))
				}
			}
			return 0, nil // publishes the tables that took their before-image
		})
		s.tx = nil
		return err
	}
	return fmt.Errorf("sqlengine: unknown transaction statement %q", x.Kind)
}

// Rollback aborts any open transaction (used by driver on conn close).
func (s *Session) Rollback() error {
	if s.tx == nil {
		return nil
	}
	return s.execTx(&TxStmt{Kind: "ROLLBACK"})
}

// Commit commits the open transaction.
func (s *Session) Commit() error { return s.execTx(&TxStmt{Kind: "COMMIT"}) }

// ---- DML ----

func execInsert(x *InsertStmt, params []Value, cur, w *catalog) (int64, error) {
	t, err := w.writable(x.Table)
	if err != nil {
		return 0, err
	}
	targets, err := t.insertTargets(x.Columns)
	if err != nil {
		return 0, err
	}

	var srcRows []Row
	if x.Select != nil {
		ex := &executor{ctx: context.Background(), cat: cur}
		rs, err := ex.execSelect(x.Select, &evalEnv{params: params})
		if err != nil {
			return 0, err
		}
		srcRows = rs.Rows
	} else {
		for _, exprRow := range x.Rows {
			vals := make([]Value, len(exprRow))
			for i, e := range exprRow {
				v, err := evalConst(e, params)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			srcRows = append(srcRows, vals)
		}
	}
	return t.insert(targets, srcRows)
}

// insert appends a row built from each of src (buildRow) to the table:
// all of them, or none. Its setRows is an append, so it must be the last
// step of its write that can fail.
func (t *Table) insert(targets []int, src []Row) (int64, error) {
	rows := t.Rows
	for _, vals := range src {
		row, err := t.buildRow(targets, vals)
		if err != nil {
			return 0, err
		}
		rows = append(rows, row)
	}
	if err := t.setRows(rows, len(t.Rows)); err != nil {
		return 0, err
	}
	return int64(len(src)), nil
}

// insertTargets returns the positions of the columns an INSERT names,
// or of every column when it names none.
func (t *Table) insertTargets(cols []string) ([]int, error) {
	if len(cols) == 0 {
		for _, c := range t.Columns {
			cols = append(cols, c.Name)
		}
	}
	targets := make([]int, len(cols))
	for i, c := range cols {
		pos, ok := t.colPos(c)
		if !ok {
			return nil, fmt.Errorf("sqlengine: table %q has no column %q", t.Name, c)
		}
		targets[i] = pos
	}
	return targets, nil
}

// buildRow makes the row to store for the values vals of the columns at
// targets: each value coerced to its column's type, every other column
// set to its DEFAULT, and NOT NULL checked.
func (t *Table) buildRow(targets []int, vals []Value) (Row, error) {
	if len(vals) != len(targets) {
		return nil, fmt.Errorf("sqlengine: INSERT into %q: %d values for %d columns", t.Name, len(vals), len(targets))
	}
	row := make(Row, len(t.Columns))
	for i, pos := range targets {
		cv, err := t.Columns[pos].Type.Coerce(vals[i])
		if err != nil {
			return nil, fmt.Errorf("sqlengine: column %q: %w", t.Columns[pos].Name, err)
		}
		row[pos] = cv
	}
	for i, c := range t.Columns {
		if c.Default != nil && !slices.Contains(targets, i) {
			v, err := evalConst(c.Default, nil)
			if err != nil {
				return nil, err
			}
			if row[i], err = c.Type.Coerce(v); err != nil {
				return nil, err
			}
		}
		if c.NotNull && row[i].IsNull() {
			return nil, fmt.Errorf("sqlengine: column %q of table %q is NOT NULL", c.Name, t.Name)
		}
	}
	return row, nil
}

// execRewrite runs an UPDATE (set given) or a DELETE (set nil) of the
// rows of table where selects. Every row's WHERE and SET see the table as
// the statement found it (a subquery over it reads cur): the new rows go
// into a new slice, which replaces the rows once every row is done.
func execRewrite(table string, where Expr, set []SetClause, params []Value, cur, w *catalog) (int64, error) {
	t, err := w.writable(table)
	if err != nil {
		return 0, err
	}
	schema := make(rowSchema, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = colBinding{qualifier: table, name: c.Name}
	}
	exprs := []Expr{where}
	for _, sc := range set {
		exprs = append(exprs, sc.Expr)
	}
	fr, fns := (&evalEnv{params: params, exec: (&executor{ctx: context.Background(), cat: cur}).execSelect}).compile(schema, set != nil, exprs...)
	rows := t.Rows[:0:0]
	var n int64
	for _, row := range t.Rows {
		fr.row, fr.rownum = row, n+1
		if fns[0] != nil {
			v, err := fns[0](fr)
			if err != nil {
				return 0, err
			}
			if !decides(v, true) {
				rows = append(rows, row)
				continue
			}
		}
		n++
		if set == nil {
			continue
		}
		newRow := slices.Clone(row)
		for si, sc := range set {
			pos, ok := t.colPos(sc.Column)
			if !ok {
				return 0, fmt.Errorf("sqlengine: table %q has no column %q", table, sc.Column)
			}
			v, err := fns[si+1](fr)
			if err != nil {
				return 0, err
			}
			cv, err := t.Columns[pos].Type.Coerce(v)
			if err != nil {
				return 0, err
			}
			if t.Columns[pos].NotNull && cv.IsNull() {
				return 0, fmt.Errorf("sqlengine: column %q is NOT NULL", sc.Column)
			}
			newRow[pos] = cv
		}
		rows = append(rows, newRow)
	}
	if n == 0 {
		return 0, nil
	}
	if err := t.setRows(rows, 0); err != nil {
		return 0, err
	}
	return n, nil
}

// ---- DDL ----

func execCreateTable(x *CreateTableStmt, w *catalog) error {
	if _, exists := w.tables[x.Table]; exists {
		if x.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqlengine: %s: table %q already exists", w.db.name, x.Table)
	}
	if _, exists := w.views[x.Table]; exists {
		return fmt.Errorf("sqlengine: %s: %q already exists as a view", w.db.name, x.Table)
	}
	if len(x.Columns) == 0 {
		return fmt.Errorf("sqlengine: table %q needs at least one column", x.Table)
	}
	t := &Table{Name: x.Table, Indexes: make(map[string]*Index), id: tableIDs.Add(1)}
	seen := map[string]bool{}
	var pk []string
	for _, cd := range x.Columns {
		if seen[cd.Name] {
			return fmt.Errorf("sqlengine: duplicate column %q in table %q", cd.Name, x.Table)
		}
		seen[cd.Name] = true
		t.Columns = append(t.Columns, Column(cd))
		if cd.PrimaryKey {
			pk = append(pk, cd.Name)
		}
	}
	t.rebuildColIndex()
	for _, c := range x.PrimaryKey {
		if !seen[c] {
			return fmt.Errorf("sqlengine: PRIMARY KEY column %q not in table %q", c, x.Table)
		}
		pk = append(pk, c)
		t.Columns[t.colIndex[c]].NotNull = true // table-level PK columns become NOT NULL
	}
	t.PrimaryKey = pk
	if len(pk) > 0 {
		t.Indexes["pk_"+x.Table] = &Index{Name: "pk_" + x.Table, Columns: pk, Unique: true}
	}
	for _, cd := range x.Columns {
		if cd.Unique && !cd.PrimaryKey {
			name := "uq_" + x.Table + "_" + cd.Name
			t.Indexes[name] = &Index{Name: name, Columns: []string{cd.Name}, Unique: true}
		}
	}
	w.tables[x.Table] = t
	return t.setRows(nil, 0) // makes the empty index maps
}

func execCreateIndex(x *CreateIndexStmt, w *catalog) error {
	t, err := w.writable(x.Table)
	if err != nil {
		return err
	}
	if _, exists := t.Indexes[x.Index]; exists {
		return fmt.Errorf("sqlengine: index %q already exists on %q", x.Index, x.Table)
	}
	for _, c := range x.Columns {
		if _, ok := t.colPos(c); !ok {
			return fmt.Errorf("sqlengine: table %q has no column %q", x.Table, c)
		}
	}
	t.Indexes[x.Index] = &Index{Name: x.Index, Columns: x.Columns, Unique: x.Unique}
	if err := t.setRows(t.Rows, 0); err != nil {
		return fmt.Errorf("sqlengine: cannot create unique index %q: %w", x.Index, err)
	}
	return nil
}

func execDrop(x *DropStmt, w *catalog) error {
	switch x.Kind {
	case "TABLE":
		if _, ok := w.tables[x.Name]; !ok {
			if x.IfExists {
				return nil
			}
			return fmt.Errorf("sqlengine: %s: no such table %q", w.db.name, x.Name)
		}
		delete(w.tables, x.Name)
	case "VIEW":
		if _, ok := w.views[x.Name]; !ok {
			if x.IfExists {
				return nil
			}
			return fmt.Errorf("sqlengine: %s: no such view %q", w.db.name, x.Name)
		}
		delete(w.views, x.Name)
	case "INDEX":
		found := false
		for name, t := range w.tables {
			if _, ok := t.Indexes[x.Name]; ok {
				t, _ = w.writable(name)
				delete(t.Indexes, x.Name)
				found = true
			}
		}
		if !found && !x.IfExists {
			return fmt.Errorf("sqlengine: %s: no such index %q", w.db.name, x.Name)
		}
	default:
		return fmt.Errorf("sqlengine: unknown DROP kind %q", x.Kind)
	}
	return nil
}

func execAlterAdd(x *AlterAddColumnStmt, w *catalog) error {
	t, err := w.writable(x.Table)
	if err != nil {
		return err
	}
	if _, exists := t.colPos(x.Column.Name); exists {
		return fmt.Errorf("sqlengine: table %q already has column %q", x.Table, x.Column.Name)
	}
	var fill Value
	if x.Column.Default != nil {
		v, err := evalConst(x.Column.Default, nil)
		if err != nil {
			return err
		}
		cv, err := x.Column.Type.Coerce(v)
		if err != nil {
			return err
		}
		fill = cv
	}
	if x.Column.NotNull && fill.IsNull() && len(t.Rows) > 0 {
		return fmt.Errorf("sqlengine: cannot add NOT NULL column %q without default to non-empty table", x.Column.Name)
	}
	rows := make([]Row, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = append(row[:len(row):len(row)], fill)
	}
	t.Columns = append(slices.Clip(t.Columns), Column(x.Column))
	t.rebuildColIndex()
	return t.setRows(rows, 0)
}

// InsertRows bulk-inserts pre-typed rows (bypassing SQL parsing); used by
// the ETL loader's fast path and by tests.
func (e *Engine) InsertRows(table string, rows []Row) (int64, error) {
	return e.db.write(func(_, w *catalog) (int64, error) {
		t, err := w.writable(normalizeName(table))
		if err != nil {
			return 0, err
		}
		targets, _ := t.insertTargets(nil) // no column named, none unknown
		return t.insert(targets, rows)
	})
}

// String implements fmt.Stringer for diagnostics.
func (e *Engine) String() string {
	return fmt.Sprintf("Engine(%s, %s, %d tables)", e.db.Name(), e.dialect.Name, len(e.db.TableNames()))
}

// FormatResult renders a result set as an aligned text table (for the CLI
// and examples).
func FormatResult(rs *ResultSet) string {
	if rs == nil {
		return ""
	}
	widths := make([]int, len(rs.Columns))
	for i, c := range rs.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rs.Rows))
	for ri, row := range rs.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(rs.Columns)
	sep := make([]string, len(rs.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range cells {
		writeRow(row)
	}
	return sb.String()
}
