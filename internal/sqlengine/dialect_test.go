package sqlengine

import (
	"strings"
	"testing"
)

// The four vendor engines must accept their own native DDL/DML/queries.

func TestOracleDialect(t *testing.T) {
	e := NewEngine("oradb", DialectOracle)
	mustExec(t, e, `CREATE TABLE "ntuple" ("event_id" NUMBER PRIMARY KEY, "e_tot" BINARY_DOUBLE, "tag" VARCHAR2(64))`)
	mustExec(t, e, `INSERT INTO "ntuple" VALUES (1, 10.5, 'a'), (2, 20.5, 'b'), (3, 30.5, 'c')`)
	// ROWNUM limiting, the Oracle idiom.
	rs := mustQuery(t, e, `SELECT "event_id" FROM "ntuple" WHERE ROWNUM <= 2`)
	if len(rs.Rows) != 2 {
		t.Fatalf("ROWNUM limit: got %d rows, want 2", len(rs.Rows))
	}
	rs = mustQuery(t, e, `SELECT "event_id" FROM "ntuple" WHERE "e_tot" > 15 AND ROWNUM <= 1`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 2 {
		t.Fatalf("ROWNUM with filter: %v", rs.Rows)
	}
	// NVL alias for COALESCE.
	rs = mustQuery(t, e, `SELECT NVL(NULL, 'dflt') FROM "ntuple" WHERE "event_id" = 1`)
	if rs.Rows[0][0].Str() != "dflt" {
		t.Errorf("NVL = %v", rs.Rows[0][0])
	}
	// || concatenation.
	rs = mustQuery(t, e, `SELECT "tag" || '!' FROM "ntuple" WHERE "event_id" = 1`)
	if rs.Rows[0][0].Str() != "a!" {
		t.Errorf("concat = %v", rs.Rows[0][0])
	}
}

func TestMySQLDialect(t *testing.T) {
	e := NewEngine("mydb", DialectMySQL)
	mustExec(t, e, "CREATE TABLE `ntuple` (`event_id` BIGINT PRIMARY KEY, `e_tot` DOUBLE, `tag` VARCHAR(64))")
	mustExec(t, e, "INSERT INTO `ntuple` VALUES (1, 10.5, 'a'), (2, 20.5, 'b'), (3, 30.5, 'c')")
	rs := mustQuery(t, e, "SELECT `event_id` FROM `ntuple` ORDER BY `event_id` DESC LIMIT 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 3 {
		t.Fatalf("LIMIT: %v", rs.Rows)
	}
	// MySQL LIMIT offset,count form.
	rs = mustQuery(t, e, "SELECT `event_id` FROM `ntuple` ORDER BY `event_id` LIMIT 1, 2")
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 2 {
		t.Fatalf("LIMIT offset,count: %v", rs.Rows)
	}
	// IFNULL alias.
	rs = mustQuery(t, e, "SELECT IFNULL(NULL, 7) FROM `ntuple` LIMIT 1")
	if rs.Rows[0][0].Int != 7 {
		t.Errorf("IFNULL = %v", rs.Rows[0][0])
	}
	// CONCAT function (no infix || in MySQL 4).
	rs = mustQuery(t, e, "SELECT CONCAT(`tag`, '!') FROM `ntuple` WHERE `event_id` = 1")
	if rs.Rows[0][0].Str() != "a!" {
		t.Errorf("CONCAT = %v", rs.Rows[0][0])
	}
}

func TestMSSQLDialect(t *testing.T) {
	e := NewEngine("msdb", DialectMSSQL)
	mustExec(t, e, `CREATE TABLE [ntuple] ([event_id] BIGINT PRIMARY KEY, [e_tot] FLOAT, [tag] NVARCHAR(64))`)
	mustExec(t, e, `INSERT INTO [ntuple] VALUES (1, 10.5, 'a'), (2, 20.5, 'b'), (3, 30.5, 'c')`)
	// TOP n limiting.
	rs := mustQuery(t, e, `SELECT TOP 2 [event_id] FROM [ntuple] ORDER BY [event_id]`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 1 {
		t.Fatalf("TOP: %v", rs.Rows)
	}
	// ISNULL alias.
	rs = mustQuery(t, e, `SELECT ISNULL(NULL, 'd') FROM [ntuple] WHERE [event_id] = 1`)
	if rs.Rows[0][0].Str() != "d" {
		t.Errorf("ISNULL = %v", rs.Rows[0][0])
	}
	// + string concatenation.
	rs = mustQuery(t, e, `SELECT [tag] + '!' FROM [ntuple] WHERE [event_id] = 1`)
	if rs.Rows[0][0].Str() != "a!" {
		t.Errorf("+ concat = %v", rs.Rows[0][0])
	}
	// LEN alias for LENGTH.
	rs = mustQuery(t, e, `SELECT LEN([tag]) FROM [ntuple] WHERE [event_id] = 1`)
	if rs.Rows[0][0].Int != 1 {
		t.Errorf("LEN = %v", rs.Rows[0][0])
	}
}

func TestSQLiteDialect(t *testing.T) {
	e := NewEngine("litedb", DialectSQLite)
	mustExec(t, e, `CREATE TABLE ntuple (event_id INTEGER PRIMARY KEY, e_tot REAL, tag TEXT)`)
	mustExec(t, e, `INSERT INTO ntuple VALUES (1, 10.5, 'a'), (2, 20.5, 'b')`)
	rs := mustQuery(t, e, `SELECT event_id FROM ntuple LIMIT 1`)
	if len(rs.Rows) != 1 {
		t.Fatalf("LIMIT: %v", rs.Rows)
	}
	rs = mustQuery(t, e, `SELECT tag || '!' FROM ntuple WHERE event_id = 2`)
	if rs.Rows[0][0].Str() != "b!" {
		t.Errorf("concat = %v", rs.Rows[0][0])
	}
}

func TestDialectByName(t *testing.T) {
	for _, name := range []string{"oracle", "mysql", "mssql", "sqlite", "ansi", "SQLServer"} {
		if _, err := DialectByName(name); err != nil {
			t.Errorf("DialectByName(%q): %v", name, err)
		}
	}
	if _, err := DialectByName("postgres9000"); err == nil {
		t.Error("unknown dialect accepted")
	}
}

func TestDialectTypeNames(t *testing.T) {
	if got := DialectOracle.TypeName(ColumnType{Kind: KindString, Size: 32}); got != "VARCHAR2(32)" {
		t.Errorf("oracle varchar = %q", got)
	}
	if got := DialectMySQL.TypeName(ColumnType{Kind: KindFloat}); got != "DOUBLE" {
		t.Errorf("mysql double = %q", got)
	}
	if got := DialectMSSQL.TypeName(ColumnType{Kind: KindBool}); got != "BIT" {
		t.Errorf("mssql bool = %q", got)
	}
	// Cross-vendor DDL mapping: each dialect must be able to express every
	// kind, and parse it back to the same kind.
	for _, d := range []*Dialect{DialectOracle, DialectMySQL, DialectMSSQL, DialectSQLite, DialectANSI} {
		for _, k := range []Kind{KindInt, KindFloat, KindString, KindTime, KindBytes} {
			name := d.TypeName(ColumnType{Kind: k})
			base := name
			if i := strings.IndexByte(base, '('); i >= 0 {
				base = base[:i]
			}
			base = strings.Fields(base)[0]
			got, err := d.TypeKind(base)
			if err != nil {
				t.Errorf("%s: TypeKind(%q): %v", d.Name, base, err)
				continue
			}
			// Booleans may map onto ints (Oracle/SQLite); everything else
			// must round-trip exactly.
			if got != k && k != KindBool {
				t.Errorf("%s: kind %s -> %q -> %s", d.Name, k, name, got)
			}
		}
	}
}

func TestConcatRendering(t *testing.T) {
	if got := DialectMySQL.Concat("a", "b"); got != "CONCAT(a, b)" {
		t.Errorf("mysql concat = %q", got)
	}
	if got := DialectMSSQL.Concat("a", "b"); got != "a + b" {
		t.Errorf("mssql concat = %q", got)
	}
	if got := DialectOracle.Concat("a", "b"); got != "a || b" {
		t.Errorf("oracle concat = %q", got)
	}
}
