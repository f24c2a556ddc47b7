package sqlengine

import (
	"strings"
	"testing"
)

func parse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := NewParser(DialectANSI).ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return st
}

func TestOperatorPrecedence(t *testing.T) {
	// a OR b AND c parses as a OR (b AND c).
	st := parse(t, `SELECT 1 FROM t WHERE a OR b AND c`).(*SelectStmt)
	or, ok := st.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op: %#v", st.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR: %#v", or.R)
	}
	// 1 + 2 * 3 parses as 1 + (2 * 3).
	st = parse(t, `SELECT 1 + 2 * 3`).(*SelectStmt)
	add := st.Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top arith: %+v", add)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("right of +: %+v", add.R)
	}
	// NOT binds tighter than AND.
	st = parse(t, `SELECT 1 FROM t WHERE NOT a AND b`).(*SelectStmt)
	topAnd := st.Where.(*BinaryExpr)
	if topAnd.Op != "AND" {
		t.Fatalf("NOT/AND precedence: %#v", st.Where)
	}
	if _, ok := topAnd.L.(*UnaryExpr); !ok {
		t.Fatalf("left of AND should be NOT: %#v", topAnd.L)
	}
	// Comparison binds tighter than AND: a = 1 AND b = 2.
	st = parse(t, `SELECT 1 FROM t WHERE a = 1 AND b = 2`).(*SelectStmt)
	if st.Where.(*BinaryExpr).Op != "AND" {
		t.Fatal("comparison/AND precedence")
	}
	// Parentheses override.
	st = parse(t, `SELECT (1 + 2) * 3`).(*SelectStmt)
	if st.Items[0].Expr.(*BinaryExpr).Op != "*" {
		t.Fatal("parenthesized precedence")
	}
}

func TestParseJoinForms(t *testing.T) {
	st := parse(t, `SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y LEFT OUTER JOIN d ON c.z = d.z CROSS JOIN e`).(*SelectStmt)
	if len(st.Joins) != 4 {
		t.Fatalf("joins = %d", len(st.Joins))
	}
	kinds := []JoinKind{JoinInner, JoinInner, JoinLeft, JoinCross}
	for i, k := range kinds {
		if st.Joins[i].Kind != k {
			t.Errorf("join %d kind = %v, want %v", i, st.Joins[i].Kind, k)
		}
	}
	if st.Joins[3].On != nil {
		t.Error("cross join must have no ON")
	}
}

func TestParseAliases(t *testing.T) {
	st := parse(t, `SELECT e.id AS ident, run r FROM events AS e`).(*SelectStmt)
	if st.Items[0].Alias != "ident" || st.Items[1].Alias != "r" {
		t.Fatalf("aliases: %+v", st.Items)
	}
	if st.From[0].Name != "events" || st.From[0].Alias != "e" {
		t.Fatalf("table alias: %+v", st.From[0])
	}
	// implicit alias without AS
	st = parse(t, `SELECT x FROM events e`).(*SelectStmt)
	if st.From[0].Alias != "e" {
		t.Fatalf("implicit alias: %+v", st.From[0])
	}
}

func TestParseNumbers(t *testing.T) {
	st := parse(t, `SELECT 42, -7, 3.5, 1e3, 2.5E-2, .5`).(*SelectStmt)
	want := []struct {
		kind Kind
		f    float64
	}{
		{KindInt, 42}, {KindInt, -7}, {KindFloat, 3.5},
		{KindFloat, 1000}, {KindFloat, 0.025}, {KindFloat, 0.5},
	}
	for i, w := range want {
		var v Value
		switch e := st.Items[i].Expr.(type) {
		case *Literal:
			v = e.Val
		case *UnaryExpr:
			inner := e.X.(*Literal).Val
			v = NewInt(-inner.Int)
		}
		got, _ := v.AsFloat()
		if got != w.f {
			t.Errorf("item %d = %v, want %g", i, v, w.f)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	st := parse(t, `SELECT 'o''brien', ''`).(*SelectStmt)
	if st.Items[0].Expr.(*Literal).Val.Str() != "o'brien" {
		t.Errorf("escape: %v", st.Items[0].Expr)
	}
	if st.Items[1].Expr.(*Literal).Val.Str() != "" {
		t.Errorf("empty string: %v", st.Items[1].Expr)
	}
}

func TestParseComments(t *testing.T) {
	sql := `SELECT 1 -- trailing comment
	/* block
	   comment */ FROM t`
	st := parse(t, sql).(*SelectStmt)
	if len(st.From) != 1 || st.From[0].Name != "t" {
		t.Fatalf("comments broke parse: %+v", st)
	}
}

func TestParseScriptMultiStatement(t *testing.T) {
	p := NewParser(DialectANSI)
	stmts, err := p.ParseScript(`CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	if _, ok := stmts[0].(*CreateTableStmt); !ok {
		t.Errorf("stmt 0: %T", stmts[0])
	}
	if _, ok := stmts[2].(*SelectStmt); !ok {
		t.Errorf("stmt 2: %T", stmts[2])
	}
	// Empty script.
	stmts, err = p.ParseScript("  ;; ")
	if err != nil || len(stmts) != 0 {
		t.Errorf("empty script: %v %v", stmts, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		``,
		`SELEC 1`,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t GROUP`,
		`INSERT INTO`,
		`INSERT INTO t VALUES`,
		`INSERT INTO t VALUES (1`,
		`UPDATE t`,
		`UPDATE t SET`,
		`DELETE t`,
		`CREATE`,
		`CREATE TABLE`,
		`CREATE TABLE t`,
		`CREATE TABLE t ()`,
		`CREATE TABLE t (a)`,
		`CREATE TABLE t (a FOOTYPE)`,
		`DROP`,
		`SELECT 1 2`,
		`SELECT (SELECT 1)`, // scalar subqueries unsupported, clear error
		`SELECT 'unterminated`,
		`SELECT "unterminated ident`,
		`SELECT * FROM t LIMIT x`,
		`SELECT CASE END`,
		`ALTER TABLE t DROP COLUMN c`, // only ADD supported
	} {
		if _, err := NewParser(DialectANSI).ParseStatement(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestParamNumbering(t *testing.T) {
	st := parse(t, `SELECT * FROM t WHERE a = ? AND b IN (?, ?) AND c BETWEEN ? AND ?`).(*SelectStmt)
	var idxs []int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Param:
			idxs = append(idxs, x.Index)
		case *BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *InExpr:
			walk(x.X)
			for _, le := range x.List {
				walk(le)
			}
		case *BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		}
	}
	walk(st.Where)
	if len(idxs) != 5 {
		t.Fatalf("params: %v", idxs)
	}
	for i, idx := range idxs {
		if idx != i {
			t.Fatalf("param order: %v", idxs)
		}
	}
}

func TestDialectSpecificParsing(t *testing.T) {
	// Backtick identifiers are only valid in MySQL-quoting dialects.
	if _, err := NewParser(DialectOracle).ParseStatement("SELECT `x` FROM t"); err == nil {
		t.Error("backticks accepted by oracle parser")
	}
	if _, err := NewParser(DialectMySQL).ParseStatement("SELECT `x` FROM t"); err != nil {
		t.Errorf("backticks rejected by mysql parser: %v", err)
	}
	// Brackets only in MS-SQL.
	if _, err := NewParser(DialectMySQL).ParseStatement("SELECT [x] FROM t"); err == nil {
		t.Error("brackets accepted by mysql parser")
	}
	if _, err := NewParser(DialectMSSQL).ParseStatement("SELECT [x] FROM t"); err != nil {
		t.Errorf("brackets rejected by mssql parser: %v", err)
	}
	// TOP requires the MS-SQL dialect; elsewhere "top" is an identifier.
	st, err := NewParser(DialectMSSQL).ParseStatement("SELECT TOP 3 x FROM t")
	if err != nil {
		t.Fatalf("TOP: %v", err)
	}
	if st.(*SelectStmt).Limit != 3 {
		t.Errorf("TOP limit: %+v", st)
	}
}

func TestCreateTableForms(t *testing.T) {
	st := parse(t, `CREATE TABLE t (
		id INTEGER PRIMARY KEY,
		name VARCHAR(64) NOT NULL,
		score DOUBLE DEFAULT 1.5,
		tag VARCHAR(8) UNIQUE,
		PRIMARY KEY (id)
	)`).(*CreateTableStmt)
	if len(st.Columns) != 4 {
		t.Fatalf("columns: %d", len(st.Columns))
	}
	if !st.Columns[0].PrimaryKey || !st.Columns[1].NotNull || !st.Columns[3].Unique {
		t.Errorf("constraints: %+v", st.Columns)
	}
	if st.Columns[2].Default == nil {
		t.Error("default lost")
	}
	if st.Columns[1].Type.Size != 64 {
		t.Errorf("varchar size: %+v", st.Columns[1].Type)
	}
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "id" {
		t.Errorf("table-level pk: %v", st.PrimaryKey)
	}
}

func TestInsertForms(t *testing.T) {
	st := parse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`).(*InsertStmt)
	if len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Fatalf("insert: %+v", st)
	}
	st = parse(t, `INSERT INTO t SELECT a, b FROM s WHERE a > 0`).(*InsertStmt)
	if st.Select == nil {
		t.Fatal("insert-select lost")
	}
}

func TestSelectModifierOrder(t *testing.T) {
	st := parse(t, `SELECT DISTINCT a FROM t WHERE b > 0 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 5 OFFSET 2`).(*SelectStmt)
	if !st.Distinct || st.Where == nil || len(st.GroupBy) != 1 || st.Having == nil {
		t.Fatalf("clauses: %+v", st)
	}
	if len(st.OrderBy) != 1 || !st.OrderBy[0].Desc || st.Limit != 5 || st.Offset != 2 {
		t.Fatalf("order/limit: %+v", st)
	}
}

func TestQualifiedTableNameFlattening(t *testing.T) {
	st := parse(t, `SELECT * FROM schema1.events`).(*SelectStmt)
	if st.From[0].Name != "events" {
		t.Fatalf("schema qualifier: %+v", st.From[0])
	}
}

func TestCaseSensitivityOfNames(t *testing.T) {
	e := NewEngine("case", DialectANSI)
	mustExec(t, e, `CREATE TABLE Events (ID INTEGER, Tag VARCHAR(8))`)
	mustExec(t, e, `INSERT INTO EVENTS (id, TAG) VALUES (1, 'x')`)
	rs := mustQuery(t, e, `SELECT Id, tAg FROM eVeNtS`)
	if len(rs.Rows) != 1 || rs.Rows[0][1].Str() != "x" {
		t.Fatalf("case-insensitive names: %v", rs.Rows)
	}
	// Error messages should flag long keyword soup clearly.
	if _, err := e.Query(`SELECT * FROM events events2 events3`); err == nil {
		t.Error("double alias accepted")
	}
}

func TestKeywordsAsIdentifiers(t *testing.T) {
	// Some keywords are valid identifiers in context (COUNT as a column).
	e := NewEngine("kw", DialectANSI)
	mustExec(t, e, `CREATE TABLE stats (count INTEGER, key VARCHAR(8))`)
	mustExec(t, e, `INSERT INTO stats (count, key) VALUES (5, 'k')`)
	rs := mustQuery(t, e, `SELECT count, key FROM stats`)
	if rs.Rows[0][0].Int != 5 {
		t.Fatalf("keyword identifiers: %v", rs.Rows)
	}
}

func TestLexerOffsetsInErrors(t *testing.T) {
	_, err := NewParser(DialectANSI).ParseStatement("SELECT * FROM t WHERE a ~ b")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("err = %v", err)
	}
}
