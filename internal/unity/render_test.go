package unity

import (
	"strings"
	"testing"

	"gridrdb/internal/sqlengine"
)

// renderRoundTrip renders a query in the target dialect (no name mapping)
// and re-parses it with the same dialect's parser.
func renderRoundTrip(t *testing.T, sql string, d *sqlengine.Dialect) string {
	t.Helper()
	st, err := sqlengine.NewParser(sqlengine.DialectANSI).ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := st.(*sqlengine.SelectStmt)
	if !ok {
		t.Fatalf("not a select: %q", sql)
	}
	out, err := RenderSelect(d, sel, &nameMapper{})
	if err != nil {
		t.Fatalf("render %q in %s: %v", sql, d.Name, err)
	}
	if _, err := sqlengine.NewParser(d).ParseStatement(out); err != nil {
		t.Fatalf("re-parse %q (from %q) in %s: %v", out, sql, d.Name, err)
	}
	return out
}

var renderCorpus = []string{
	"SELECT * FROM t",
	"SELECT a, b AS bee FROM t WHERE a > 1 AND b <> 'x'",
	"SELECT DISTINCT a FROM t ORDER BY a DESC",
	"SELECT a FROM t WHERE a IN (1, 2, 3)",
	"SELECT a FROM t WHERE a NOT IN (1) OR b IS NULL",
	"SELECT a FROM t WHERE a BETWEEN 1 AND 10",
	"SELECT a FROM t WHERE b LIKE 'mu%'",
	"SELECT COUNT(*), SUM(a), AVG(b) FROM t GROUP BY c HAVING COUNT(*) > 1",
	"SELECT COALESCE(a, 0), UPPER(b) FROM t",
	"SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END FROM t",
	"SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.k = t2.k",
	"SELECT a FROM t1 LEFT JOIN t2 ON t1.k = t2.k WHERE t2.k IS NULL",
	"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.k = 1)",
	"SELECT a FROM t WHERE a IN (SELECT k FROM s)",
	"SELECT a FROM t UNION ALL SELECT a FROM s",
	"SELECT a FROM t WHERE NOT (a = 1)",
	"SELECT -a, a % 2 FROM t",
	"SELECT a FROM t CROSS JOIN s",
}

func TestRenderRoundTripAllDialects(t *testing.T) {
	for _, d := range []*sqlengine.Dialect{
		sqlengine.DialectANSI, sqlengine.DialectOracle,
		sqlengine.DialectMySQL, sqlengine.DialectMSSQL, sqlengine.DialectSQLite,
	} {
		for _, sql := range renderCorpus {
			renderRoundTrip(t, sql, d)
		}
	}
}

func TestRenderLimitStyles(t *testing.T) {
	sql := "SELECT a FROM t ORDER BY a LIMIT 10"
	if got := renderRoundTrip(t, sql, sqlengine.DialectMySQL); !strings.Contains(got, "LIMIT 10") {
		t.Errorf("mysql: %s", got)
	}
	if got := renderRoundTrip(t, sql, sqlengine.DialectMSSQL); !strings.Contains(got, "TOP 10") {
		t.Errorf("mssql: %s", got)
	}
	if got := renderRoundTrip(t, "SELECT a FROM t LIMIT 10", sqlengine.DialectOracle); !strings.Contains(got, "ROWNUM <= 10") {
		t.Errorf("oracle: %s", got)
	}
	// Oracle with an existing WHERE must AND the ROWNUM bound.
	got := renderRoundTrip(t, "SELECT a FROM t WHERE a > 1 LIMIT 5", sqlengine.DialectOracle)
	if !strings.Contains(got, "AND") || !strings.Contains(got, "ROWNUM") {
		t.Errorf("oracle where+limit: %s", got)
	}
	// An aggregate in a subquery does not aggregate the statement itself.
	if got := renderRoundTrip(t, "SELECT a FROM t WHERE EXISTS (SELECT COUNT(*) FROM s) LIMIT 5", sqlengine.DialectOracle); !strings.Contains(got, "ROWNUM <= 5") {
		t.Errorf("oracle subquery aggregate: %s", got)
	}
	// ROWNUM numbers rows before ORDER BY, grouping, aggregates and
	// DISTINCT: past any of them the bound would pick the wrong rows, so
	// the statement does not render (and the federation decomposes it).
	for _, q := range []string{
		sql,
		"SELECT c, COUNT(*) FROM t GROUP BY c LIMIT 1",
		"SELECT COUNT(*) FROM t LIMIT 1",
		"SELECT DISTINCT a FROM t LIMIT 2",
	} {
		st, err := sqlengine.NewParser(sqlengine.DialectANSI).ParseStatement(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := RenderSelect(sqlengine.DialectOracle, st.(*sqlengine.SelectStmt), &nameMapper{}); err == nil {
			t.Errorf("oracle rendered %q as %q", q, got)
		}
	}
}

func TestRenderConcatStyles(t *testing.T) {
	sql := "SELECT a || b FROM t"
	if got := renderRoundTrip(t, sql, sqlengine.DialectMySQL); !strings.Contains(got, "CONCAT(") {
		t.Errorf("mysql concat: %s", got)
	}
	if got := renderRoundTrip(t, sql, sqlengine.DialectMSSQL); !strings.Contains(got, "+") {
		t.Errorf("mssql concat: %s", got)
	}
	if got := renderRoundTrip(t, sql, sqlengine.DialectOracle); !strings.Contains(got, "||") {
		t.Errorf("oracle concat: %s", got)
	}
}

func TestRenderOffsetInexpressible(t *testing.T) {
	st, err := sqlengine.NewParser(sqlengine.DialectANSI).ParseStatement("SELECT a FROM t LIMIT 5 OFFSET 3")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sqlengine.SelectStmt)
	// MS-SQL 2000 cannot express OFFSET.
	if _, err := RenderSelect(sqlengine.DialectMSSQL, sel, &nameMapper{}); err == nil {
		t.Error("OFFSET rendered for mssql")
	}
	if _, err := RenderSelect(sqlengine.DialectOracle, sel, &nameMapper{}); err == nil {
		t.Error("OFFSET rendered for oracle")
	}
	// MySQL can.
	if _, err := RenderSelect(sqlengine.DialectMySQL, sel, &nameMapper{}); err != nil {
		t.Errorf("mysql offset: %v", err)
	}
}

// Render-execute equivalence: running the original on an ANSI engine and
// the rendered form on a same-data vendor engine must agree.
func TestRenderExecuteEquivalence(t *testing.T) {
	seed := `CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR(16));
		INSERT INTO t VALUES (1, 1.5, 'muon'), (2, 2.5, 'electron'),
		(3, NULL, 'muon'), (4, 4.5, 'tau'), (5, 5.0, NULL)`
	queries := []string{
		"SELECT a, b FROM t WHERE c = 'muon' ORDER BY a",
		"SELECT COUNT(*), SUM(b) FROM t",
		"SELECT c, COUNT(*) AS n FROM t GROUP BY c ORDER BY n DESC, c",
		"SELECT a FROM t WHERE b IS NULL OR c IS NULL ORDER BY a",
		"SELECT a FROM t WHERE c LIKE 'm%' ORDER BY a",
		"SELECT CASE WHEN b > 2 THEN 'big' ELSE 'small' END AS size, a FROM t WHERE b IS NOT NULL ORDER BY a",
		"SELECT a, c FROM t WHERE a > 1 LIMIT 2",
	}
	ansi := sqlengine.NewEngine("eq_ansi", sqlengine.DialectANSI)
	if err := ansi.ExecScript(seed); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*sqlengine.Dialect{
		sqlengine.DialectOracle, sqlengine.DialectMySQL,
		sqlengine.DialectMSSQL, sqlengine.DialectSQLite,
	} {
		vendor := sqlengine.NewEngine("eq_"+d.Name, d)
		// Seed via dialect-rendered DDL+DML: the ANSI seed happens to
		// parse in all dialects (unquoted identifiers, standard types).
		if err := vendor.ExecScript(seed); err != nil {
			t.Fatalf("%s seed: %v", d.Name, err)
		}
		for _, q := range queries {
			st, err := sqlengine.NewParser(sqlengine.DialectANSI).ParseStatement(q)
			if err != nil {
				t.Fatal(err)
			}
			rendered, err := RenderSelect(d, st.(*sqlengine.SelectStmt), &nameMapper{})
			if err != nil {
				t.Fatalf("%s render %q: %v", d.Name, q, err)
			}
			want, err := ansi.Query(q)
			if err != nil {
				t.Fatalf("ansi %q: %v", q, err)
			}
			got, err := vendor.Query(rendered)
			if err != nil {
				t.Fatalf("%s %q: %v", d.Name, rendered, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("%s %q: %d rows vs %d", d.Name, q, len(got.Rows), len(want.Rows))
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					wv, gv := want.Rows[i][j], got.Rows[i][j]
					if wv.IsNull() != gv.IsNull() {
						t.Fatalf("%s %q row %d col %d: NULL mismatch", d.Name, q, i, j)
					}
					if !wv.IsNull() && sqlengine.Compare(wv, gv) != 0 {
						t.Fatalf("%s %q row %d col %d: %v vs %v", d.Name, q, i, j, gv, wv)
					}
				}
			}
		}
	}
}
