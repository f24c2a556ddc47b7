package sqlengine

import (
	"strings"
	"testing"
)

func mustExec(t *testing.T, e *Engine, sql string) int64 {
	t.Helper()
	n, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	rs, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func newTestDB(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine("testdb", DialectANSI)
	mustExec(t, e, `CREATE TABLE events (id INTEGER PRIMARY KEY, run INTEGER NOT NULL, energy DOUBLE, tag VARCHAR(32))`)
	mustExec(t, e, `INSERT INTO events (id, run, energy, tag) VALUES
		(1, 100, 5.5, 'muon'),
		(2, 100, 7.25, 'electron'),
		(3, 101, 2.0, 'muon'),
		(4, 101, NULL, 'tau'),
		(5, 102, 9.75, 'muon')`)
	return e
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT id, tag FROM events WHERE run = 100 ORDER BY id`)
	if len(rs.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rs.Rows))
	}
	if rs.Rows[0][0].Int != 1 || rs.Rows[1][0].Int != 2 {
		t.Errorf("unexpected ids: %v %v", rs.Rows[0][0], rs.Rows[1][0])
	}
	if rs.Columns[1] != "tag" {
		t.Errorf("column name = %q, want tag", rs.Columns[1])
	}
}

func TestSelectStar(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT * FROM events`)
	if len(rs.Columns) != 4 || len(rs.Rows) != 5 {
		t.Fatalf("got %d cols x %d rows, want 4x5", len(rs.Columns), len(rs.Rows))
	}
}

func TestWherePredicates(t *testing.T) {
	e := newTestDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{`energy > 5`, 3},
		{`energy >= 5.5`, 3},
		{`energy < 3`, 1},
		{`energy IS NULL`, 1},
		{`energy IS NOT NULL`, 4},
		{`tag = 'muon'`, 3},
		{`tag <> 'muon'`, 2},
		{`tag LIKE 'mu%'`, 3},
		{`tag LIKE '%on'`, 4},
		{`tag LIKE '_uon'`, 3},
		{`tag NOT LIKE 'mu%'`, 2},
		{`run IN (100, 102)`, 3},
		{`run NOT IN (100, 102)`, 2},
		{`energy BETWEEN 2 AND 6`, 2},
		{`energy NOT BETWEEN 2 AND 6`, 2}, // NULL row excluded
		{`run = 100 AND tag = 'muon'`, 1},
		{`run = 100 OR tag = 'tau'`, 3},
		{`NOT (run = 100)`, 3},
		{`energy * 2 > 11`, 2},
		{`id % 2 = 0`, 2},
	}
	for _, c := range cases {
		rs := mustQuery(t, e, `SELECT id FROM events WHERE `+c.where)
		if len(rs.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(rs.Rows), c.want)
		}
	}
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	e := newTestDB(t)
	// energy = NULL must match nothing.
	rs := mustQuery(t, e, `SELECT id FROM events WHERE energy = NULL`)
	if len(rs.Rows) != 0 {
		t.Errorf("= NULL matched %d rows, want 0", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT id FROM events WHERE energy <> NULL`)
	if len(rs.Rows) != 0 {
		t.Errorf("<> NULL matched %d rows, want 0", len(rs.Rows))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT id FROM events ORDER BY energy DESC LIMIT 2`)
	// NULL sorts first ascending, so DESC puts NULL last; top two: 9.75, 7.25.
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 5 || rs.Rows[1][0].Int != 2 {
		t.Fatalf("got %v", rs.Rows)
	}
	rs = mustQuery(t, e, `SELECT id FROM events ORDER BY id LIMIT 2 OFFSET 2`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 3 || rs.Rows[1][0].Int != 4 {
		t.Fatalf("offset: got %v", rs.Rows)
	}
	// ORDER BY ordinal
	rs = mustQuery(t, e, `SELECT id, energy FROM events WHERE energy IS NOT NULL ORDER BY 2`)
	if rs.Rows[0][0].Int != 3 {
		t.Errorf("ordinal order: first id = %v, want 3", rs.Rows[0][0])
	}
}

func TestAggregates(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT COUNT(*), COUNT(energy), SUM(energy), AVG(energy), MIN(energy), MAX(energy) FROM events`)
	row := rs.Rows[0]
	if row[0].Int != 5 || row[1].Int != 4 {
		t.Errorf("counts = %v %v, want 5 4", row[0], row[1])
	}
	if f, _ := row[2].AsFloat(); f != 24.5 {
		t.Errorf("sum = %v, want 24.5", row[2])
	}
	if f, _ := row[3].AsFloat(); f != 6.125 {
		t.Errorf("avg = %v, want 6.125", row[3])
	}
	if f, _ := row[4].AsFloat(); f != 2.0 {
		t.Errorf("min = %v", row[4])
	}
	if f, _ := row[5].AsFloat(); f != 9.75 {
		t.Errorf("max = %v", row[5])
	}
}

func TestGroupByHaving(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT run, COUNT(*) AS n FROM events GROUP BY run ORDER BY run`)
	if len(rs.Rows) != 3 {
		t.Fatalf("got %d groups, want 3", len(rs.Rows))
	}
	if rs.Rows[0][1].Int != 2 || rs.Rows[1][1].Int != 2 || rs.Rows[2][1].Int != 1 {
		t.Errorf("group counts: %v", rs.Rows)
	}
	rs = mustQuery(t, e, `SELECT run FROM events GROUP BY run HAVING COUNT(*) > 1 ORDER BY run`)
	if len(rs.Rows) != 2 {
		t.Fatalf("having: got %d rows, want 2", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT tag, COUNT(DISTINCT run) AS runs FROM events GROUP BY tag ORDER BY tag`)
	// electron:1, muon:3, tau:1
	if rs.Rows[1][0].Str() != "muon" || rs.Rows[1][1].Int != 3 {
		t.Errorf("distinct count: %v", rs.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT DISTINCT tag FROM events ORDER BY tag`)
	if len(rs.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rs.Rows))
	}
}

func TestJoins(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `CREATE TABLE runs (run INTEGER PRIMARY KEY, detector VARCHAR(16))`)
	mustExec(t, e, `INSERT INTO runs VALUES (100, 'CMS'), (101, 'ATLAS')`)

	rs := mustQuery(t, e, `SELECT e.id, r.detector FROM events e JOIN runs r ON e.run = r.run ORDER BY e.id`)
	if len(rs.Rows) != 4 {
		t.Fatalf("inner join: got %d rows, want 4", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT e.id, r.detector FROM events e LEFT JOIN runs r ON e.run = r.run ORDER BY e.id`)
	if len(rs.Rows) != 5 {
		t.Fatalf("left join: got %d rows, want 5", len(rs.Rows))
	}
	if !rs.Rows[4][1].IsNull() {
		t.Errorf("left join unmatched detector = %v, want NULL", rs.Rows[4][1])
	}
	rs = mustQuery(t, e, `SELECT r.detector, e.id FROM runs r RIGHT JOIN events e ON e.run = r.run ORDER BY e.id`)
	if len(rs.Rows) != 5 {
		t.Fatalf("right join: got %d rows, want 5", len(rs.Rows))
	}
	// implicit comma join with WHERE equi-predicate
	rs = mustQuery(t, e, `SELECT e.id FROM events e, runs r WHERE e.run = r.run AND r.detector = 'CMS'`)
	if len(rs.Rows) != 2 {
		t.Fatalf("comma join: got %d rows, want 2", len(rs.Rows))
	}
	// cross join row count
	rs = mustQuery(t, e, `SELECT e.id FROM events e CROSS JOIN runs r`)
	if len(rs.Rows) != 10 {
		t.Fatalf("cross join: got %d rows, want 10", len(rs.Rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `CREATE TABLE runs (run INTEGER PRIMARY KEY, site VARCHAR(8))`)
	mustExec(t, e, `INSERT INTO runs VALUES (100,'T0'),(101,'T1'),(102,'T2')`)
	mustExec(t, e, `CREATE TABLE sites (site VARCHAR(8), tier INTEGER)`)
	mustExec(t, e, `INSERT INTO sites VALUES ('T0',0),('T1',1),('T2',2)`)
	rs := mustQuery(t, e, `SELECT e.id, s.tier FROM events e JOIN runs r ON e.run = r.run JOIN sites s ON r.site = s.site WHERE s.tier >= 1 ORDER BY e.id`)
	if len(rs.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rs.Rows))
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTestDB(t)
	n := mustExec(t, e, `UPDATE events SET tag = 'mu' WHERE tag = 'muon'`)
	if n != 3 {
		t.Fatalf("update affected %d, want 3", n)
	}
	rs := mustQuery(t, e, `SELECT COUNT(*) FROM events WHERE tag = 'mu'`)
	if rs.Rows[0][0].Int != 3 {
		t.Errorf("after update: %v", rs.Rows[0][0])
	}
	n = mustExec(t, e, `DELETE FROM events WHERE run = 101`)
	if n != 2 {
		t.Fatalf("delete affected %d, want 2", n)
	}
	rs = mustQuery(t, e, `SELECT COUNT(*) FROM events`)
	if rs.Rows[0][0].Int != 3 {
		t.Errorf("after delete: %v", rs.Rows[0][0])
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	e := newTestDB(t)
	if _, err := e.Exec(`INSERT INTO events (id, run) VALUES (1, 999)`); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// NOT NULL enforcement
	if _, err := e.Exec(`INSERT INTO events (id) VALUES (99)`); err == nil {
		t.Fatal("NOT NULL run accepted as NULL")
	}
}

func TestInsertSelect(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `CREATE TABLE muons (id INTEGER, energy DOUBLE)`)
	n := mustExec(t, e, `INSERT INTO muons (id, energy) SELECT id, energy FROM events WHERE tag = 'muon'`)
	if n != 3 {
		t.Fatalf("insert-select inserted %d, want 3", n)
	}
}

func TestViews(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `CREATE VIEW muon_view AS SELECT id, energy FROM events WHERE tag = 'muon'`)
	rs := mustQuery(t, e, `SELECT * FROM muon_view ORDER BY id`)
	if len(rs.Rows) != 3 {
		t.Fatalf("view: got %d rows, want 3", len(rs.Rows))
	}
	// view over view
	mustExec(t, e, `CREATE VIEW hot_muons AS SELECT id FROM muon_view WHERE energy > 5`)
	rs = mustQuery(t, e, `SELECT * FROM hot_muons`)
	if len(rs.Rows) != 2 {
		t.Fatalf("nested view: got %d rows, want 2", len(rs.Rows))
	}
	// view text preserved
	if text := e.db.pin().views["muon_view"].Text; !strings.Contains(strings.ToUpper(text), "SELECT") {
		t.Errorf("view text = %q", text)
	}
	mustExec(t, e, `DROP VIEW hot_muons`)
	if _, err := e.Query(`SELECT * FROM hot_muons`); err == nil {
		t.Fatal("dropped view still queryable")
	}
}

func TestSubqueries(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `CREATE TABLE good_runs (run INTEGER)`)
	mustExec(t, e, `INSERT INTO good_runs VALUES (100), (102)`)
	rs := mustQuery(t, e, `SELECT id FROM events WHERE run IN (SELECT run FROM good_runs) ORDER BY id`)
	if len(rs.Rows) != 3 {
		t.Fatalf("IN subquery: got %d rows, want 3", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT id FROM events WHERE run NOT IN (SELECT run FROM good_runs)`)
	if len(rs.Rows) != 2 {
		t.Fatalf("NOT IN subquery: got %d rows, want 2", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT COUNT(*) FROM events WHERE EXISTS (SELECT 1 FROM good_runs)`)
	if rs.Rows[0][0].Int != 5 {
		t.Fatalf("EXISTS: %v", rs.Rows[0][0])
	}
}

func TestUnion(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT id FROM events WHERE run = 100 UNION ALL SELECT id FROM events WHERE tag = 'muon'`)
	if len(rs.Rows) != 5 {
		t.Fatalf("union all: got %d rows, want 5", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT tag FROM events WHERE run = 100 UNION SELECT tag FROM events`)
	if len(rs.Rows) != 3 {
		t.Fatalf("union dedupe: got %d rows, want 3", len(rs.Rows))
	}
}

func TestCaseExpr(t *testing.T) {
	e := newTestDB(t)
	rs := mustQuery(t, e, `SELECT id, CASE WHEN energy > 5 THEN 'hot' WHEN energy IS NULL THEN 'unknown' ELSE 'cold' END AS class FROM events ORDER BY id`)
	want := []string{"hot", "hot", "cold", "unknown", "hot"}
	for i, w := range want {
		if rs.Rows[i][1].Str() != w {
			t.Errorf("row %d class = %q, want %q", i, rs.Rows[i][1].Str(), w)
		}
	}
	rs = mustQuery(t, e, `SELECT CASE tag WHEN 'muon' THEN 1 ELSE 0 END FROM events WHERE id = 1`)
	if rs.Rows[0][0].Int != 1 {
		t.Errorf("simple case: %v", rs.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	e := newTestDB(t)
	cases := []struct {
		expr string
		want string
	}{
		{`UPPER('abc')`, "ABC"},
		{`LOWER('ABC')`, "abc"},
		{`LENGTH('hello')`, "5"},
		{`SUBSTR('hello', 2, 3)`, "ell"},
		{`COALESCE(NULL, NULL, 'x')`, "x"},
		{`ABS(-4)`, "4"},
		{`ROUND(3.567, 2)`, "3.57"},
		{`FLOOR(3.9)`, "3"},
		{`CEIL(3.1)`, "4"},
		{`MOD(7, 3)`, "1"},
		{`TRIM('  a  ')`, "a"},
		{`REPLACE('aXa', 'X', 'b')`, "aba"},
		{`CONCAT('a', 'b', 'c')`, "abc"},
		{`'a' || 'b'`, "ab"},
		{`SQRT(16)`, "4"},
		{`POWER(2, 10)`, "1024"},
	}
	for _, c := range cases {
		rs := mustQuery(t, e, `SELECT `+c.expr+` FROM events WHERE id = 1`)
		if got := rs.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestParams(t *testing.T) {
	e := newTestDB(t)
	rs, err := e.Query(`SELECT id FROM events WHERE run = ? AND tag = ?`, NewInt(100), NewString("muon"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 1 {
		t.Fatalf("param query: %v", rs.Rows)
	}
	if _, err := e.Query(`SELECT id FROM events WHERE run = ?`); err == nil {
		t.Fatal("missing parameter accepted")
	}
}

func TestTransactions(t *testing.T) {
	e := newTestDB(t)
	s := e.NewSession()
	if _, _, err := s.Run(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(`DELETE FROM events`); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, e, `SELECT COUNT(*) FROM events`)
	if rs.Rows[0][0].Int != 0 {
		t.Fatalf("delete inside tx not visible: %v", rs.Rows[0][0])
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs = mustQuery(t, e, `SELECT COUNT(*) FROM events`)
	if rs.Rows[0][0].Int != 5 {
		t.Fatalf("rollback did not restore rows: %v", rs.Rows[0][0])
	}
	// commit path
	if _, _, err := s.Run(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Run(`DELETE FROM events WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	rs = mustQuery(t, e, `SELECT COUNT(*) FROM events`)
	if rs.Rows[0][0].Int != 4 {
		t.Fatalf("commit lost rows: %v", rs.Rows[0][0])
	}
}

func TestAlterTruncateDescribeShow(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `ALTER TABLE events ADD COLUMN weight DOUBLE DEFAULT 1.0`)
	rs := mustQuery(t, e, `SELECT weight FROM events WHERE id = 1`)
	if f, _ := rs.Rows[0][0].AsFloat(); f != 1.0 {
		t.Errorf("default fill = %v, want 1.0", rs.Rows[0][0])
	}
	rs = mustQuery(t, e, `DESCRIBE events`)
	if len(rs.Rows) != 5 {
		t.Errorf("describe: %d columns, want 5", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SHOW TABLES`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str() != "events" {
		t.Errorf("show tables: %v", rs.Rows)
	}
	mustExec(t, e, `TRUNCATE TABLE events`)
	rs = mustQuery(t, e, `SELECT COUNT(*) FROM events`)
	if rs.Rows[0][0].Int != 0 {
		t.Errorf("truncate left %v rows", rs.Rows[0][0])
	}
}

func TestIndexes(t *testing.T) {
	e := newTestDB(t)
	mustExec(t, e, `CREATE INDEX idx_run ON events (run)`)
	rs := mustQuery(t, e, `SELECT id FROM events WHERE run = 101 ORDER BY id`)
	if len(rs.Rows) != 2 {
		t.Fatalf("indexed query: got %d rows", len(rs.Rows))
	}
	if _, err := e.Exec(`CREATE UNIQUE INDEX uq_tag ON events (tag)`); err == nil {
		t.Fatal("unique index over duplicate values accepted")
	}
	mustExec(t, e, `DROP INDEX idx_run`)
}

func TestErrors(t *testing.T) {
	e := newTestDB(t)
	for _, sql := range []string{
		`SELECT nosuch FROM events`,
		`SELECT * FROM nosuch`,
		`INSERT INTO events (nosuch) VALUES (1)`,
		`SELECT id FROM events WHERE`,
		`CREATE TABLE events (id INTEGER)`, // duplicate
		`SELECT 1/0 FROM events`,
		`UPDATE nosuch SET x = 1`,
		`DELETE FROM nosuch`,
		`DROP TABLE nosuch`,
	} {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
	// IF EXISTS / IF NOT EXISTS variants do not error
	mustExec(t, e, `DROP TABLE IF EXISTS nosuch`)
	mustExec(t, e, `CREATE TABLE IF NOT EXISTS events (id INTEGER)`)
}

func TestSelectWithoutFrom(t *testing.T) {
	e := NewEngine("x", DialectANSI)
	rs := mustQuery(t, e, `SELECT 1 + 2 AS s, 'a' || 'b'`)
	if rs.Rows[0][0].Int != 3 || rs.Rows[0][1].Str() != "ab" {
		t.Fatalf("got %v", rs.Rows[0])
	}
}

func TestAuthentication(t *testing.T) {
	e := NewEngine("secure", DialectANSI)
	if err := e.Authenticate("anyone", "x"); err != nil {
		t.Fatal("open engine rejected credentials")
	}
	e.AddUser("cms", "s3cret")
	if err := e.Authenticate("cms", "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := e.Authenticate("cms", "wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
}

func TestFormatResult(t *testing.T) {
	e := newTestDB(t)
	out := FormatResult(mustQuery(t, e, `SELECT id, tag FROM events WHERE id = 1`))
	if !strings.Contains(out, "id") || !strings.Contains(out, "muon") {
		t.Errorf("FormatResult output:\n%s", out)
	}
	if FormatResult(nil) != "" {
		t.Error("nil result should render empty")
	}
}

// TestStringNumerals: a string is a number only when it parses to a
// finite value. 'NaN' and 'Inf' are text like 'abc' — in a comparison
// with a number, under +, and in SUM — while '1e308' stays a number.
func TestStringNumerals(t *testing.T) {
	e := NewEngine("numerals", DialectANSI)
	mustExec(t, e, `CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(16))`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'NaN'), (2, 'Inf'), (3, '-Infinity'), (4, 'abc'), (5, '1e308'), (6, '7')`)

	ids := func(sql string) string {
		t.Helper()
		var out []string
		for _, row := range mustQuery(t, e, sql).Rows {
			out = append(out, row[0].String())
		}
		return strings.Join(out, ",")
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT id FROM t WHERE s = 5.5 AND s = 7 ORDER BY id", ""},
		{"SELECT id FROM t WHERE s = 7 ORDER BY id", "6"},
		{"SELECT id FROM t WHERE s = 1e308 ORDER BY id", "5"},
		{"SELECT id FROM t WHERE s <> 1e308 AND s <> 7 ORDER BY id", "1,2,3,4"},
		{"SELECT id FROM t WHERE s BETWEEN 1e307 AND 1.5e308 ORDER BY id", "5"},
	} {
		if got := ids(tc.sql); got != tc.want {
			t.Errorf("%s: ids %q, want %q", tc.sql, got, tc.want)
		}
	}

	for _, s := range []string{"NaN", "Inf", "-Infinity"} {
		got := mustQuery(t, e, "SELECT '"+s+"' + 1, 'abc' + 1").Rows[0]
		if got[0].Kind != KindString || got[0].Str() != s+"1" || got[1].Str() != "abc1" {
			t.Errorf("'%s' + 1 = %v, 'abc' + 1 = %v; want the concatenations", s, got[0], got[1])
		}
		_, err := e.Query("SELECT SUM(s) FROM t WHERE s = '" + s + "'")
		_, abcErr := e.Query("SELECT SUM(s) FROM t WHERE s = 'abc'")
		if err == nil || abcErr == nil || !strings.Contains(err.Error(), "non-numeric") {
			t.Errorf("SUM over '%s': %v; over 'abc': %v; want both non-numeric", s, err, abcErr)
		}
	}
	if got := mustQuery(t, e, "SELECT s + 1 FROM t WHERE id = 5").Rows[0][0]; got.Kind != KindFloat || got.Float != 1e308 {
		t.Errorf("'1e308' + 1 = %v, want the number 1e308", got)
	}
}

// TestLongNumerals: a numeral string whose value is an integer in the
// int64 range compares, and converts to an INTEGER column, as that int;
// any other numeral compares with an int by its exact decimal value. Past
// 2^53 a float64 no longer holds every integer, so reading the numeral
// through float64 made '9007199254740993' equal 2^53.
func TestLongNumerals(t *testing.T) {
	e := NewEngine("longnumerals", DialectANSI)
	mustExec(t, e, `CREATE TABLE t (id INTEGER PRIMARY KEY, s VARCHAR(32))`)
	mustExec(t, e, `INSERT INTO t VALUES (1, '9007199254740993'), (2, '9007199254740993.0'), (3, '9007199254740992.5'), (4, '-9223372036854775808.5')`)
	mustExec(t, e, `CREATE TABLE u (id BIGINT)`)
	mustExec(t, e, `INSERT INTO u VALUES (9007199254740992), (-9223372036854775807 - 1)`)
	mustExec(t, e, `CREATE TABLE n (v BIGINT)`)
	mustExec(t, e, `INSERT INTO n VALUES ('9007199254740993.0'), ('-7.9')`)

	for _, tc := range []struct{ sql, want string }{
		{"SELECT CASE WHEN '9007199254740993' = 9007199254740992 THEN 1 ELSE 0 END", "0"},
		{"SELECT id FROM t WHERE s = 9007199254740992 ORDER BY id", ""},
		{"SELECT id FROM t WHERE s = 9007199254740993 ORDER BY id", "1,2"},
		{"SELECT id FROM t WHERE s > 9007199254740992 AND s < 9007199254740993 ORDER BY id", "3"},
		{"SELECT t.id FROM t, u WHERE t.s = u.id ORDER BY t.id", ""},
		{"SELECT t.id FROM t, u WHERE t.s < u.id AND u.id < 0 ORDER BY t.id", "4"},
		{"SELECT v FROM n ORDER BY v", "-7,9007199254740993"},
	} {
		for name, query := range map[string]func(*Engine, string, ...Value) (*ResultSet, error){"engine": (*Engine).Query, "oracle": refQuery} {
			rs, err := query(e, tc.sql)
			if err != nil {
				t.Errorf("%s: %s: %v", name, tc.sql, err)
				continue
			}
			var got []string
			for _, row := range rs.Rows {
				got = append(got, row[0].String())
			}
			if g := strings.Join(got, ","); g != tc.want {
				t.Errorf("%s: %s = %q, want %q", name, tc.sql, g, tc.want)
			}
		}
	}
}
