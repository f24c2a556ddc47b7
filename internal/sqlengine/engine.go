package sqlengine

import (
	"fmt"
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
	// tx holds the pre-transaction row snapshot (table -> rows) while a
	// transaction is open; nil otherwise. DDL is not transactional.
	tx map[string][]Row
}

// NewSession opens a session.
func (e *Engine) NewSession() *Session { return &Session{eng: e} }

// Query parses and executes a statement, returning rows for SELECT-like
// statements and an empty result (with RowsAffected) otherwise.
func (e *Engine) Query(sql string, params ...Value) (*ResultSet, error) {
	s := e.NewSession()
	rs, _, err := s.Run(sql, params...)
	return rs, err
}

// Exec parses and executes a statement, returning the affected row count.
func (e *Engine) Exec(sql string, params ...Value) (int64, error) {
	s := e.NewSession()
	_, n, err := s.Run(sql, params...)
	return n, err
}

// ExecScript runs a semicolon-separated script, stopping at the first
// error.
func (e *Engine) ExecScript(script string) error {
	p := NewParser(e.dialect)
	stmts, err := p.ParseScript(script)
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
	p := NewParser(s.eng.dialect)
	st, err := p.ParseStatement(sql)
	if err != nil {
		return nil, 0, err
	}
	return s.RunStmt(st, params)
}

// RunStmt executes a parsed statement in this session.
func (s *Session) RunStmt(st Statement, params []Value) (*ResultSet, int64, error) {
	e := s.eng
	switch x := st.(type) {
	case *SelectStmt:
		e.db.mu.RLock()
		defer e.db.mu.RUnlock()
		ex := &executor{db: e.db}
		rs, err := ex.execSelect(x, &evalEnv{params: params})
		return rs, 0, err
	case *InsertStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		n, err := s.execInsert(x, params)
		return nil, n, err
	case *UpdateStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		n, err := s.execUpdate(x, params)
		return nil, n, err
	case *DeleteStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		n, err := s.execDelete(x, params)
		return nil, n, err
	case *CreateTableStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		return nil, 0, s.execCreateTable(x)
	case *CreateViewStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		if _, exists := e.db.views[x.View]; exists {
			return nil, 0, fmt.Errorf("sqlengine: %s: view %q already exists", e.db.name, x.View)
		}
		if _, exists := e.db.tables[x.View]; exists {
			return nil, 0, fmt.Errorf("sqlengine: %s: %q already exists as a table", e.db.name, x.View)
		}
		e.db.views[x.View] = &View{Name: x.View, Stmt: x.Select, Text: x.Text}
		return nil, 0, nil
	case *CreateIndexStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		return nil, 0, s.execCreateIndex(x)
	case *DropStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		return nil, 0, s.execDrop(x)
	case *TruncateStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		t, ok := e.db.tables[x.Table]
		if !ok {
			return nil, 0, fmt.Errorf("sqlengine: %s: no such table %q", e.db.name, x.Table)
		}
		n := int64(len(t.Rows))
		t.Rows = nil
		t.rebuildIndexes()
		return nil, n, nil
	case *AlterAddColumnStmt:
		e.db.mu.Lock()
		defer e.db.mu.Unlock()
		return nil, 0, s.execAlterAdd(x)
	case *TxStmt:
		return nil, 0, s.execTx(x)
	case *ShowTablesStmt:
		e.db.mu.RLock()
		defer e.db.mu.RUnlock()
		rs := &ResultSet{Columns: []string{"name", "type"}}
		for _, n := range sortedKeys(e.db.tables) {
			rs.Rows = append(rs.Rows, Row{NewString(n), NewString("table")})
		}
		for _, n := range sortedKeys(e.db.views) {
			rs.Rows = append(rs.Rows, Row{NewString(n), NewString("view")})
		}
		return rs, 0, nil
	case *DescribeStmt:
		e.db.mu.RLock()
		defer e.db.mu.RUnlock()
		t, ok := e.db.tables[x.Table]
		if !ok {
			return nil, 0, fmt.Errorf("sqlengine: %s: no such table %q", e.db.name, x.Table)
		}
		rs := &ResultSet{Columns: []string{"column", "type", "nullable", "key"}}
		for _, c := range t.Columns {
			key := ""
			if c.PrimaryKey {
				key = "PRI"
			} else if c.Unique {
				key = "UNI"
			}
			nullable := "YES"
			if c.NotNull {
				nullable = "NO"
			}
			rs.Rows = append(rs.Rows, Row{
				NewString(c.Name), NewString(e.dialect.TypeName(c.Type)),
				NewString(nullable), NewString(key),
			})
		}
		return rs, 0, nil
	}
	return nil, 0, fmt.Errorf("sqlengine: unsupported statement %T", st)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion sort: maps are small (catalog-sized)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ---- transactions ----

func (s *Session) execTx(x *TxStmt) error {
	e := s.eng
	switch x.Kind {
	case "BEGIN":
		if s.tx != nil {
			return fmt.Errorf("sqlengine: transaction already open")
		}
		e.db.mu.RLock()
		snap := make(map[string][]Row, len(e.db.tables))
		for name, t := range e.db.tables {
			rows := make([]Row, len(t.Rows))
			for i, r := range t.Rows {
				rows[i] = r.Clone()
			}
			snap[name] = rows
		}
		e.db.mu.RUnlock()
		s.tx = snap
		return nil
	case "COMMIT":
		if s.tx == nil {
			return fmt.Errorf("sqlengine: no transaction open")
		}
		s.tx = nil
		return nil
	case "ROLLBACK":
		if s.tx == nil {
			return fmt.Errorf("sqlengine: no transaction open")
		}
		e.db.mu.Lock()
		for name, rows := range s.tx {
			if t, ok := e.db.tables[name]; ok {
				t.Rows = rows
				t.rebuildIndexes()
			}
		}
		e.db.mu.Unlock()
		s.tx = nil
		return nil
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

func (s *Session) execInsert(x *InsertStmt, params []Value) (int64, error) {
	db := s.eng.db
	t, ok := db.tables[x.Table]
	if !ok {
		return 0, fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Table)
	}
	// Resolve target column positions.
	var targets []int
	if len(x.Columns) == 0 {
		targets = make([]int, len(t.Columns))
		for i := range t.Columns {
			targets[i] = i
		}
	} else {
		targets = make([]int, len(x.Columns))
		for i, c := range x.Columns {
			pos, ok := t.colPos(c)
			if !ok {
				return 0, fmt.Errorf("sqlengine: table %q has no column %q", x.Table, c)
			}
			targets[i] = pos
		}
	}

	var srcRows [][]Value
	if x.Select != nil {
		ex := &executor{db: db}
		rs, err := ex.execSelect(x.Select, &evalEnv{params: params})
		if err != nil {
			return 0, err
		}
		for _, r := range rs.Rows {
			srcRows = append(srcRows, r)
		}
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

	var inserted int64
	for _, vals := range srcRows {
		if len(vals) != len(targets) {
			return inserted, fmt.Errorf("sqlengine: INSERT into %q: %d values for %d columns", x.Table, len(vals), len(targets))
		}
		row := make(Row, len(t.Columns))
		assigned := make([]bool, len(t.Columns))
		for i, pos := range targets {
			v, err := t.Columns[pos].Type.Coerce(vals[i])
			if err != nil {
				return inserted, fmt.Errorf("sqlengine: column %q: %w", t.Columns[pos].Name, err)
			}
			row[pos] = v
			assigned[pos] = true
		}
		for i, c := range t.Columns {
			if !assigned[i] && c.Default != nil {
				v, err := evalConst(c.Default, nil)
				if err != nil {
					return inserted, err
				}
				cv, err := c.Type.Coerce(v)
				if err != nil {
					return inserted, err
				}
				row[i] = cv
			}
			if c.NotNull && row[i].IsNull() {
				return inserted, fmt.Errorf("sqlengine: column %q of table %q is NOT NULL", c.Name, x.Table)
			}
		}
		t.Rows = append(t.Rows, row)
		if err := t.addToIndexes(len(t.Rows) - 1); err != nil {
			t.Rows = t.Rows[:len(t.Rows)-1]
			t.rebuildIndexes()
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

func (s *Session) execUpdate(x *UpdateStmt, params []Value) (int64, error) {
	db := s.eng.db
	t, ok := db.tables[x.Table]
	if !ok {
		return 0, fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Table)
	}
	schema := make(rowSchema, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = colBinding{qualifier: x.Table, name: c.Name}
	}
	exprs := []Expr{x.Where}
	for _, set := range x.Set {
		exprs = append(exprs, set.Expr)
	}
	fr, fns := (&evalEnv{params: params, exec: (&executor{db: db}).execSelect}).compile(schema, true, exprs...)
	// Every row's WHERE and SET see the table as the statement found it
	// (a subquery over it included): the new rows are written after the
	// loop.
	type update struct {
		ri  int
		row Row
	}
	var updates []update
	err := func() error {
		for ri, row := range t.Rows {
			fr.row, fr.rownum = row, int64(len(updates))+1
			if fns[0] != nil {
				v, err := fns[0](fr)
				if err != nil {
					return err
				}
				if !decides(v, true) {
					continue
				}
			}
			newRow := row.Clone()
			for si, set := range x.Set {
				pos, ok := t.colPos(set.Column)
				if !ok {
					return fmt.Errorf("sqlengine: table %q has no column %q", x.Table, set.Column)
				}
				v, err := fns[si+1](fr)
				if err != nil {
					return err
				}
				cv, err := t.Columns[pos].Type.Coerce(v)
				if err != nil {
					return err
				}
				if t.Columns[pos].NotNull && cv.IsNull() {
					return fmt.Errorf("sqlengine: column %q is NOT NULL", set.Column)
				}
				newRow[pos] = cv
			}
			updates = append(updates, update{ri, newRow})
		}
		return nil
	}()
	for _, u := range updates {
		t.Rows[u.ri] = u.row
	}
	updated := int64(len(updates))
	if updated == 0 {
		return 0, err
	}
	// The rows updated before an error stay updated, so the indexes and
	// the key order that seeks read must follow them either way.
	t.rebuildIndexes()
	if err != nil {
		return updated, err
	}
	// Re-validate unique indexes after bulk update.
	for _, idx := range t.Indexes {
		if !idx.Unique {
			continue
		}
		for _, positions := range idx.m {
			if len(positions) > 1 {
				return updated, fmt.Errorf("sqlengine: unique constraint %q violated by UPDATE", idx.Name)
			}
		}
	}
	return updated, nil
}

func (s *Session) execDelete(x *DeleteStmt, params []Value) (int64, error) {
	db := s.eng.db
	t, ok := db.tables[x.Table]
	if !ok {
		return 0, fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Table)
	}
	schema := make(rowSchema, len(t.Columns))
	for i, c := range t.Columns {
		schema[i] = colBinding{qualifier: x.Table, name: c.Name}
	}
	fr, fns := (&evalEnv{params: params, exec: (&executor{db: db}).execSelect}).compile(schema, false, x.Where)
	kept := t.Rows[:0:0]
	var deleted int64
	for _, row := range t.Rows {
		keep := false
		if fns[0] != nil {
			fr.row = row
			v, err := fns[0](fr)
			if err != nil {
				return deleted, err
			}
			keep = !decides(v, true)
		}
		if keep {
			kept = append(kept, row)
		} else {
			deleted++
		}
	}
	t.Rows = kept
	if deleted > 0 {
		t.rebuildIndexes()
	}
	return deleted, nil
}

// ---- DDL ----

func (s *Session) execCreateTable(x *CreateTableStmt) error {
	db := s.eng.db
	if _, exists := db.tables[x.Table]; exists {
		if x.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqlengine: %s: table %q already exists", db.name, x.Table)
	}
	if _, exists := db.views[x.Table]; exists {
		return fmt.Errorf("sqlengine: %s: %q already exists as a view", db.name, x.Table)
	}
	if len(x.Columns) == 0 {
		return fmt.Errorf("sqlengine: table %q needs at least one column", x.Table)
	}
	t := &Table{Name: x.Table, Indexes: make(map[string]*Index)}
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
	for _, c := range x.PrimaryKey {
		if !seen[c] {
			return fmt.Errorf("sqlengine: PRIMARY KEY column %q not in table %q", c, x.Table)
		}
		pk = append(pk, c)
		// table-level PK columns become NOT NULL
		for i := range t.Columns {
			if t.Columns[i].Name == c {
				t.Columns[i].NotNull = true
			}
		}
	}
	t.PrimaryKey = pk
	t.rebuildColIndex()
	if len(pk) > 0 {
		t.Indexes["pk_"+x.Table] = &Index{Name: "pk_" + x.Table, Columns: pk, Unique: true}
	}
	for _, cd := range x.Columns {
		if cd.Unique && !cd.PrimaryKey {
			name := "uq_" + x.Table + "_" + cd.Name
			t.Indexes[name] = &Index{Name: name, Columns: []string{cd.Name}, Unique: true}
		}
	}
	t.rebuildIndexes()
	db.tables[x.Table] = t
	return nil
}

func (s *Session) execCreateIndex(x *CreateIndexStmt) error {
	db := s.eng.db
	t, ok := db.tables[x.Table]
	if !ok {
		return fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Table)
	}
	if _, exists := t.Indexes[x.Index]; exists {
		return fmt.Errorf("sqlengine: index %q already exists on %q", x.Index, x.Table)
	}
	for _, c := range x.Columns {
		if _, ok := t.colPos(c); !ok {
			return fmt.Errorf("sqlengine: table %q has no column %q", x.Table, c)
		}
	}
	idx := &Index{Name: x.Index, Columns: x.Columns, Unique: x.Unique}
	t.Indexes[x.Index] = idx
	t.rebuildIndexes()
	if x.Unique {
		for _, positions := range idx.m {
			if len(positions) > 1 {
				delete(t.Indexes, x.Index)
				return fmt.Errorf("sqlengine: cannot create unique index %q: duplicate keys exist", x.Index)
			}
		}
	}
	return nil
}

func (s *Session) execDrop(x *DropStmt) error {
	db := s.eng.db
	switch x.Kind {
	case "TABLE":
		if _, ok := db.tables[x.Name]; !ok {
			if x.IfExists {
				return nil
			}
			return fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Name)
		}
		delete(db.tables, x.Name)
	case "VIEW":
		if _, ok := db.views[x.Name]; !ok {
			if x.IfExists {
				return nil
			}
			return fmt.Errorf("sqlengine: %s: no such view %q", db.name, x.Name)
		}
		delete(db.views, x.Name)
	case "INDEX":
		found := false
		for _, t := range db.tables {
			if _, ok := t.Indexes[x.Name]; ok {
				delete(t.Indexes, x.Name)
				found = true
			}
		}
		if !found && !x.IfExists {
			return fmt.Errorf("sqlengine: %s: no such index %q", db.name, x.Name)
		}
	default:
		return fmt.Errorf("sqlengine: unknown DROP kind %q", x.Kind)
	}
	return nil
}

func (s *Session) execAlterAdd(x *AlterAddColumnStmt) error {
	db := s.eng.db
	t, ok := db.tables[x.Table]
	if !ok {
		return fmt.Errorf("sqlengine: %s: no such table %q", db.name, x.Table)
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
	t.Columns = append(t.Columns, Column(x.Column))
	t.rebuildColIndex()
	for i := range t.Rows {
		t.Rows[i] = append(t.Rows[i], fill)
	}
	return nil
}

// InsertRows bulk-inserts pre-typed rows (bypassing SQL parsing); used by
// the ETL loader's fast path and by tests.
func (e *Engine) InsertRows(table string, rows []Row) (int64, error) {
	e.db.mu.Lock()
	defer e.db.mu.Unlock()
	t, ok := e.db.tables[normalizeName(table)]
	if !ok {
		return 0, fmt.Errorf("sqlengine: %s: no such table %q", e.db.name, table)
	}
	var n int64
	for _, r := range rows {
		if len(r) != len(t.Columns) {
			return n, fmt.Errorf("sqlengine: row has %d values, table %q has %d columns", len(r), table, len(t.Columns))
		}
		row := make(Row, len(r))
		for i, v := range r {
			cv, err := t.Columns[i].Type.Coerce(v)
			if err != nil {
				return n, fmt.Errorf("sqlengine: column %q: %w", t.Columns[i].Name, err)
			}
			if t.Columns[i].NotNull && cv.IsNull() {
				return n, fmt.Errorf("sqlengine: column %q is NOT NULL", t.Columns[i].Name)
			}
			row[i] = cv
		}
		t.Rows = append(t.Rows, row)
		if err := t.addToIndexes(len(t.Rows) - 1); err != nil {
			t.Rows = t.Rows[:len(t.Rows)-1]
			t.rebuildIndexes()
			return n, err
		}
		n++
	}
	return n, nil
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
