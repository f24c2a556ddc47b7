package sqlengine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gridrdb/internal/leaktest"
)

// The generated DML differential: seeded statement sequences over one
// table with a primary key, a second unique column and a non-unique
// index, run in one engine Session and applied by a reference (dmlRef)
// to plain row slices, each statement all or nothing. After every
// statement the engine's rows must equal the reference's as a multiset,
// the rows-affected counts must agree (0 for a statement that fails), and
// every equality seek and key range must read what the oracle's scan of
// the same rows reads (FuzzAccessPath's check).

const dmlDDL = `CREATE TABLE t (id INTEGER PRIMARY KEY, u INTEGER UNIQUE, v INTEGER DEFAULT 7);
CREATE INDEX t_vn ON t (v)`

// genDML writes one statement of a sequence: multi-row INSERTs with
// duplicate and NULL keys, INSERT…SELECT from the table itself, UPDATEs
// of the keys (with a subquery over the table, and SET expressions that
// divide by zero on some rows), DELETEs whose WHERE fails on some rows,
// TRUNCATE, unique indexes created over duplicate values, and
// transactions.
func genDML(r *rand.Rand) string {
	pick := func(xs ...string) string { return xs[r.Intn(len(xs))] }
	key := func() string { return pick("NULL", "0", "1", "2", "3", "4", "5") }
	small := func() string { return pick("0", "1", "2", "3") }
	switch r.Intn(16) {
	case 0, 1, 2:
		vals := make([]string, 1+r.Intn(4))
		for i := range vals {
			vals[i] = fmt.Sprintf("(%s, %s, %s)", key(), key(), pick("NULL", "0", "1", "2"))
		}
		return "INSERT INTO t VALUES " + strings.Join(vals, ", ")
	case 3:
		return fmt.Sprintf("INSERT INTO t (u, id) VALUES (%s, %s), (%s, %s)", key(), key(), key(), key())
	case 4:
		return fmt.Sprintf("INSERT INTO t SELECT id + %s, u + %s, v FROM t WHERE %s", pick("1", "3", "6"), pick("1", "10"),
			pick("v = 1", "id > 2", "u IS NULL", "id < 10 / (id - 3)"))
	case 5:
		return fmt.Sprintf("UPDATE t SET id = id + %s WHERE %s", pick("1", "-1", "3"), pick("v = 1", "id > 2", "u IS NOT NULL", "v IS NULL"))
	case 6:
		return fmt.Sprintf("UPDATE t SET id = %s WHERE id = %s", small(), small())
	case 7:
		return fmt.Sprintf("UPDATE t SET u = 10 / (id - %s)%s", small(), pick("", " WHERE v = 1", " WHERE id > 1"))
	case 8:
		return fmt.Sprintf("UPDATE t SET u = %s, v = v + 1 WHERE id IN (SELECT u FROM t WHERE v %s)", pick("u + 1", "id", "NULL"), pick("= 1", "> 0", "IS NULL"))
	case 9:
		return fmt.Sprintf("UPDATE t SET v = %s WHERE EXISTS (SELECT 1 FROM t x WHERE x.u = t.id)", pick("1", "v + 1", "u"))
	case 10, 11:
		return "DELETE FROM t WHERE " + pick("10 / (id - "+small()+") < 0", "v = "+small(), "id IN (SELECT u FROM t)", "u > id",
			"u NOT IN (SELECT v FROM t WHERE v > 5)")
	case 12:
		return pick("TRUNCATE TABLE t", "DELETE FROM t WHERE v IS NULL", "DELETE FROM t WHERE id > 3")
	case 13:
		return pick("CREATE UNIQUE INDEX t_v ON t (v)", "CREATE UNIQUE INDEX t_uv ON t (u, v)", "DROP INDEX t_v", "DROP INDEX t_uv")
	}
	return pick("BEGIN", "COMMIT", "ROLLBACK")
}

// dmlRef is the reference: table t of an engine of its own, whose rows
// only this file assigns (the oracle reads them for subqueries), and the
// indexes the engine's t should have.
type dmlRef struct {
	e       *Engine
	t       *Table
	indexes map[string]dmlIndex
	before  []Row // the rows at BEGIN
	inTx    bool
}

type dmlIndex struct {
	cols   []string
	unique bool
}

func newDMLRef(tb testing.TB) *dmlRef {
	e := NewEngine("dmlref", DialectANSI)
	if err := e.ExecScript(dmlDDL); err != nil {
		tb.Fatal(err)
	}
	return &dmlRef{e: e, t: e.db.pin().tables["t"], indexes: map[string]dmlIndex{
		"pk_t": {[]string{"id"}, true}, "uq_t_u": {[]string{"u"}, true}, "t_vn": {[]string{"v"}, false},
	}}
}

// apply applies one statement, all or nothing, and returns the rows it
// affects.
func (r *dmlRef) apply(st Statement) (int64, error) {
	switch x := st.(type) {
	case *InsertStmt:
		return r.insert(x)
	case *UpdateStmt:
		return r.rewrite(x.Where, x.Set, false)
	case *DeleteStmt:
		return r.rewrite(x.Where, nil, true)
	case *TruncateStmt:
		n := int64(len(r.t.Rows))
		r.t.Rows = nil
		return n, nil
	case *CreateIndexStmt:
		idx := dmlIndex{x.Columns, x.Unique}
		if _, ok := r.indexes[x.Index]; ok || idx.unique && r.duplicates(r.t.Rows, idx) {
			return 0, errors.New("index exists, or duplicate keys")
		}
		r.indexes[x.Index] = idx
	case *DropStmt:
		if _, ok := r.indexes[x.Name]; !ok {
			return 0, errors.New("no such index")
		}
		delete(r.indexes, x.Name)
	case *TxStmt:
		if r.inTx == (x.Kind == "BEGIN") {
			return 0, errors.New("wrong transaction state")
		}
		r.inTx = x.Kind == "BEGIN"
		switch x.Kind {
		case "BEGIN":
			r.before = r.t.Rows
		case "ROLLBACK":
			// A unique index created since BEGIN may refuse the rows.
			return 0, r.set(r.before)
		}
	default:
		return 0, fmt.Errorf("dmlRef: unexpected %T", st)
	}
	return 0, nil
}

// set makes rows the contents unless they break a unique index.
func (r *dmlRef) set(rows []Row) error {
	for name, idx := range r.indexes {
		if idx.unique && r.duplicates(rows, idx) {
			return fmt.Errorf("unique index %s violated", name)
		}
	}
	r.t.Rows = rows
	return nil
}

// duplicates reports whether two rows are equal by Compare on every
// column of idx, none of them NULL.
func (r *dmlRef) duplicates(rows []Row, idx dmlIndex) bool {
	for i := range rows {
	next:
		for j := i + 1; j < len(rows); j++ {
			for _, c := range idx.cols {
				ci, _ := r.t.colPos(c)
				if rows[i][ci].IsNull() || Compare(rows[i][ci], rows[j][ci]) != 0 {
					continue next
				}
			}
			return true
		}
	}
	return false
}

func (r *dmlRef) insert(x *InsertStmt) (int64, error) {
	cols := x.Columns
	if len(cols) == 0 {
		for _, c := range r.t.Columns {
			cols = append(cols, c.Name)
		}
	}
	var src []Row
	if x.Select != nil {
		rs, err := (&refExecutor{db: r.e.db}).execSelect(x.Select, nil, nil)
		if err != nil {
			return 0, err
		}
		src = rs.Rows
	}
	for _, exprs := range x.Rows {
		vals := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := evalExpr(e, &evalContext{})
			if err != nil {
				return 0, err
			}
			vals[i] = v
		}
		src = append(src, vals)
	}
	rows := slices.Clone(r.t.Rows)
	for _, vals := range src {
		row := make(Row, len(r.t.Columns))
		for i, c := range r.t.Columns {
			v := Null()
			if j := slices.Index(cols, c.Name); j >= 0 {
				v = vals[j]
			} else if c.Default != nil {
				v, _ = evalExpr(c.Default, &evalContext{})
			}
			cv, err := c.Type.Coerce(v)
			if err == nil && c.NotNull && cv.IsNull() {
				err = errors.New("NOT NULL column")
			}
			if err != nil {
				return 0, err
			}
			row[i] = cv
		}
		rows = append(rows, row)
	}
	if err := r.set(rows); err != nil {
		return 0, err
	}
	return int64(len(src)), nil
}

// rewrite applies an UPDATE (set) or a DELETE: WHERE and SET see the rows
// as the statement found them.
func (r *dmlRef) rewrite(where Expr, set []SetClause, del bool) (int64, error) {
	schema := make(rowSchema, len(r.t.Columns))
	for i, c := range r.t.Columns {
		schema[i] = colBinding{qualifier: "t", name: c.Name}
	}
	exec := (&refExecutor{db: r.e.db}).execSelect
	var rows []Row
	var n int64
	for _, row := range r.t.Rows {
		ec := &evalContext{schema: schema, row: row, exec: exec}
		if where != nil {
			v, err := evalExpr(where, ec)
			if err != nil {
				return 0, err
			}
			if b, ok := v.AsBool(); !ok || v.IsNull() || !b {
				rows = append(rows, row)
				continue
			}
		}
		n++
		if del {
			continue
		}
		nr := slices.Clone(row)
		for _, s := range set {
			v, err := evalExpr(s.Expr, ec)
			if err != nil {
				return 0, err
			}
			ci, _ := r.t.colPos(s.Column)
			cv, err := r.t.Columns[ci].Type.Coerce(v)
			if err == nil && r.t.Columns[ci].NotNull && cv.IsNull() {
				err = errors.New("NOT NULL column")
			}
			if err != nil {
				return 0, err
			}
			nr[ci] = cv
		}
		rows = append(rows, nr)
	}
	if err := r.set(rows); err != nil {
		return 0, err
	}
	return n, nil
}

// dmlTally counts, per statement kind, the statements that succeeded and
// failed, so the test can require the generator to reach both.
type dmlTally map[string]int

// checkDMLSeed runs one seed's sequence on an engine session and on the
// reference, checking after every statement.
func checkDMLSeed(t *testing.T, seed int64, tally dmlTally) {
	r := rand.New(rand.NewSource(seed))
	e := NewEngine("dml", DialectANSI)
	if err := e.ExecScript(dmlDDL); err != nil {
		t.Fatal(err)
	}
	ref, s, log := newDMLRef(t), e.NewSession(), recordPaths(e)
	var done []string
	fail := func(format string, args ...interface{}) {
		t.Helper()
		t.Fatalf("seed %d: %s\n  statements:\n    %s\n  replay: %s", seed, fmt.Sprintf(format, args...),
			strings.Join(done, ";\n    "), Replay("TestDMLDifferential", dmlSeeds, "FuzzDMLDifferential", seed))
	}
	for range 30 {
		sql := genDML(r)
		done = append(done, sql)
		st, err := NewParser(DialectANSI).ParseStatement(sql)
		if err != nil {
			fail("parse: %v", err)
		}
		_, n, err := s.RunStmt(st, nil)
		rn, rerr := ref.apply(st)
		kind := strings.Fields(sql)[0]
		switch {
		case (err == nil) != (rerr == nil):
			fail("engine error %v, reference error %v", err, rerr)
		case err != nil && n != 0:
			fail("a failed statement reports %d rows (%v)", n, err)
		case n != rn:
			fail("engine reports %d rows, reference %d", n, rn)
		case err != nil:
			tally[kind+" failed"]++
		default:
			tally[kind+" ok"]++
		}

		got, err := e.Query("SELECT * FROM t")
		if err != nil {
			fail("SELECT *: %v", err)
		}
		if g, w := rowMultiset(got.Rows), rowMultiset(ref.t.Rows); !slices.Equal(g, w) {
			fail("rows\n  engine    %v\n  reference %v", g, w)
		}
		log.take()
		for ci, col := range []string{"id", "u", "v"} {
			probes := []Value{NewInt(99)}
			for _, row := range ref.t.Rows {
				if !row[ci].IsNull() {
					probes = append(probes, row[ci])
				}
			}
			for _, k := range probes {
				checkDMLRead(t, e, fail, "SELECT * FROM t WHERE "+col+" = ?", k)
				if paths := log.take(); len(paths) != 1 || paths[0] != "t:seek" {
					fail("%s = %v read %v, want t:seek", col, k, paths)
				}
			}
		}
		checkDMLRead(t, e, fail, "SELECT * FROM t WHERE id BETWEEN ? AND ?", NewInt(1), NewInt(4))
		checkDMLRead(t, e, fail, "SELECT id FROM t WHERE id > ?", NewInt(2))
	}
}

// checkDMLRead runs a SELECT on the engine, which may seek or read a key
// range, and on the oracle, which scans the same rows.
func checkDMLRead(t *testing.T, e *Engine, fail func(string, ...interface{}), sql string, params ...Value) {
	t.Helper()
	got, err := e.Query(sql, params...)
	want, werr := refQuery(e, sql, params...)
	if err != nil || werr != nil {
		fail("%s %v: engine error %v, oracle error %v", sql, params, err, werr)
	}
	if g, w := rowKeys(got.Rows), rowKeys(want.Rows); !slices.Equal(g, w) {
		fail("%s %v:\n  engine %v\n  oracle %v", sql, params, g, w)
	}
}

func rowMultiset(rows []Row) []string {
	keys := rowKeys(rows)
	sort.Strings(keys)
	return keys
}

const dmlSeeds = 300

func TestDMLDifferential(t *testing.T) {
	tally := dmlTally{}
	for seed := int64(0); seed < dmlSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { checkDMLSeed(t, seed, tally) })
	}
	t.Logf("statements: %v", tally)
	for _, kind := range []string{"INSERT", "UPDATE", "DELETE", "CREATE", "ROLLBACK"} {
		for _, outcome := range []string{" ok", " failed"} {
			if tally[kind+outcome] < 20 {
				t.Errorf("%s%s %d times in %d seeds (%v)", kind, outcome, tally[kind+outcome], dmlSeeds, tally)
			}
		}
	}
}

func FuzzDMLDifferential(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkDMLSeed(t, seed, dmlTally{}) })
}

// TestFailedStatementChangesNothing: each statement that fails part-way
// leaves the table as it was and reports 0 rows.
func TestFailedStatementChangesNothing(t *testing.T) {
	for _, c := range []struct{ rows, sql string }{
		{"(1), (2)", "UPDATE t SET id = 1 WHERE id = 2"},
		{"(5)", "INSERT INTO t (id) VALUES (1), (2), (5), (3)"},
		{"(5)", "InsertRows 1, 2, 5, 3"},
		{"(1), (2), (3)", "DELETE FROM t WHERE 10 / (id - 2) < 0"},
		{"(1), (2), (3)", "UPDATE t SET id = id + 100, v = 10 / (id - 2)"},
	} {
		e := NewEngine("atomic", DialectANSI)
		mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		mustExec(t, e, "INSERT INTO t (id) VALUES "+c.rows)
		before := rowKeys(mustQuery(t, e, "SELECT * FROM t").Rows)
		var n int64
		var err error
		if c.sql == "InsertRows 1, 2, 5, 3" {
			n, err = e.InsertRows("t", []Row{{NewInt(1), Null()}, {NewInt(2), Null()}, {NewInt(5), Null()}, {NewInt(3), Null()}})
		} else {
			n, err = e.Exec(c.sql)
		}
		if err == nil || n != 0 {
			t.Errorf("%s: %d rows, error %v; want 0 rows and an error", c.sql, n, err)
		}
		if after := rowKeys(mustQuery(t, e, "SELECT * FROM t").Rows); !slices.Equal(after, before) {
			t.Errorf("%s: rows %v became %v", c.sql, before, after)
		}
		for _, row := range mustQuery(t, e, "SELECT id FROM t").Rows {
			if rs := mustQuery(t, e, fmt.Sprintf("SELECT id FROM t WHERE id = %d", row[0].Int)); len(rs.Rows) != 1 {
				t.Errorf("%s: a seek for id %d finds %v", c.sql, row[0].Int, rs.Rows)
			}
		}
	}
}

// TestStoredRowsNeverChange: no write changes a stored row, nor a slot
// of the table's row slice that a reader holds — a result's rows, the
// slice itself, a transaction's before-image — nor the rows an index
// seek over a pinned version finds, in this session or in another.
// Returning stored rows without copying them rests on this.
func TestStoredRowsNeverChange(t *testing.T) {
	e := NewEngine("inplace", DialectANSI)
	mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s VARCHAR(8))")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	for id := 1; id <= 20; id++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 's%d')", id, id%3, id))
	}
	results := []*ResultSet{
		mustQuery(t, e, "SELECT * FROM t"),
		mustQuery(t, e, "SELECT * FROM t WHERE v = 1"),
		mustQuery(t, e, "SELECT * FROM t WHERE id BETWEEN 3 AND 9"),
	}
	// A seek over the version pinned now keeps finding that version's rows
	// only, after appends to the index map later versions share with it.
	pinned := e.db.pin().tables["t"]
	stored := pinned.Rows
	v1, err := NewParser(DialectANSI).ParseStatement("SELECT * FROM t WHERE v = 1")
	if err != nil {
		t.Fatal(err)
	}
	seek := func() []Row {
		rows, path := pinned.accessRows("t", v1.(*SelectStmt).Where, nil)
		if path != pathSeek {
			t.Fatalf("the pinned version's v = 1 took path %s", path)
		}
		return rows
	}
	held := func() string {
		var sb strings.Builder
		for _, rs := range append(results, &ResultSet{Rows: stored}, &ResultSet{Rows: seek()}) {
			sb.WriteString(strings.Join(rowKeys(rs.Rows), "\n"))
		}
		return sb.String()
	}
	want := held()
	other := e.NewSession()
	for _, step := range []struct {
		s    *Session
		sql  string
		fail bool
	}{
		{nil, "INSERT INTO t VALUES (21, 1, 's21'), (22, 1, 's22')", false},
		{nil, "INSERT INTO t VALUES (23, 1, 's23'), (1, 1, 'dup')", true},
		{nil, "UPDATE t SET v = v + 1, s = 'u'", false},
		{nil, "DELETE FROM t WHERE id < 5", false},
		{nil, "ALTER TABLE t ADD COLUMN w INTEGER DEFAULT 3", false},
		{nil, "UPDATE t SET id = id + 1, v = 10 / (id - 12)", true},
		{other, "BEGIN", false},
		{other, "UPDATE t SET s = 'x'", false},
		{other, "INSERT INTO t VALUES (100, 1, 'y', 0)", false},
		{other, "ROLLBACK", false},
		{nil, "INSERT INTO t VALUES (101, 1, 'z', 0)", false},
		{nil, "TRUNCATE TABLE t", false},
	} {
		s := step.s
		if s == nil {
			s = e.NewSession()
		}
		if _, _, err := s.Run(step.sql); (err != nil) != step.fail {
			t.Fatalf("%s: error %v", step.sql, err)
		}
		if got := held(); got != want {
			t.Fatalf("after %s the rows held changed:\n%s\nwant\n%s", step.sql, got, want)
		}
	}
}

// TestWriteAllocsIndependentOfRows: an INSERT of one row indexes only
// that row, and BEGIN takes a before-image per table, not per row.
func TestWriteAllocsIndependentOfRows(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	setup := func(n int) *Engine {
		e := NewEngine("writeallocs", DialectANSI)
		mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY, u INTEGER UNIQUE, v INTEGER)")
		mustExec(t, e, "CREATE INDEX t_v ON t (v)")
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{NewInt(int64(i)), NewInt(int64(i)), NewInt(int64(i % 7))}
		}
		if _, err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	insert, _ := NewParser(DialectANSI).ParseStatement("INSERT INTO t VALUES (?, ?, ?)")
	begin, _ := NewParser(DialectANSI).ParseStatement("BEGIN")
	commit, _ := NewParser(DialectANSI).ParseStatement("COMMIT")
	allocs := map[string][]float64{}
	for _, n := range []int{10, 10000} {
		s, id := setup(n).NewSession(), int64(n)
		allocs["INSERT"] = append(allocs["INSERT"], testing.AllocsPerRun(200, func() {
			id++
			if _, _, err := s.RunStmt(insert, []Value{NewInt(id), NewInt(id), NewInt(id % 7)}); err != nil {
				t.Fatal(err)
			}
		}))
		allocs["BEGIN"] = append(allocs["BEGIN"], testing.AllocsPerRun(200, func() {
			if _, _, err := s.RunStmt(begin, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.RunStmt(commit, nil); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for stmt, a := range allocs {
		if a[1] > a[0] {
			t.Errorf("%s allocates %.0f times over 10 000 rows, %.0f over 10", stmt, a[1], a[0])
		}
	}
}

// TestRollbackAfterDDL: DDL is not transactional, so a ROLLBACK neither
// puts back rows narrower than the table has become (it fails for that
// table, which keeps its rows, where it used to store them and panic on
// the next read) nor puts a dropped table's rows into a new table of the
// same name (where it used to, under the new table's columns).
func TestRollbackAfterDDL(t *testing.T) {
	for _, c := range []struct {
		ddl       []string
		fails     bool
		sql, want string
	}{
		{[]string{"ALTER TABLE t ADD COLUMN w INTEGER DEFAULT 4", "INSERT INTO t VALUES (2, 5)"}, true, "SELECT id, w FROM t", "[[1 4] [2 5]]"},
		{[]string{"DROP TABLE t", "CREATE TABLE t (n DOUBLE)", "INSERT INTO t VALUES (2.5)"}, false, "SELECT n FROM t", "[[2.5]]"},
	} {
		e := NewEngine("ddlrollback", DialectANSI)
		mustExec(t, e, "CREATE TABLE t (id INTEGER PRIMARY KEY)")
		mustExec(t, e, "INSERT INTO t VALUES (1)")
		s := e.NewSession()
		for _, sql := range append([]string{"BEGIN"}, c.ddl...) {
			if _, _, err := s.Run(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		if _, _, err := s.Run("ROLLBACK"); (err != nil) != c.fails {
			t.Errorf("%v: ROLLBACK error %v, want an error: %v", c.ddl, err, c.fails)
		}
		if got := fmt.Sprint(mustQuery(t, e, c.sql).Rows); got != c.want {
			t.Errorf("%v: rows after the ROLLBACK: %s, want %s", c.ddl, got, c.want)
		}
	}
}
