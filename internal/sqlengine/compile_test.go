package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gridrdb/internal/leaktest"
)

// TestSubqueryAmbiguityStaysInner: a bare name two tables of a subquery
// share is ambiguous there, so it is an error, not a reference to the
// outer row's column of that name; only a name the subquery does not know
// resolves outside it.
func TestSubqueryAmbiguityStaysInner(t *testing.T) {
	e := NewEngine("scopes", DialectANSI)
	mustExec(t, e, "CREATE TABLE o (id INTEGER, x INTEGER)")
	mustExec(t, e, "CREATE TABLE a (id INTEGER, x INTEGER)")
	mustExec(t, e, "CREATE TABLE b (id INTEGER, x INTEGER)")
	mustExec(t, e, "INSERT INTO o VALUES (1, 5), (2, 6)")
	mustExec(t, e, "INSERT INTO a VALUES (1, 1)")
	mustExec(t, e, "INSERT INTO b VALUES (1, 2)")
	const want = `sqlengine: ambiguous column reference "x"`
	for _, sql := range []string{
		"SELECT a.id FROM a JOIN b ON a.id = b.id WHERE x = 5",
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM a JOIN b ON a.id = b.id WHERE x = 5)",
		"SELECT id FROM o WHERE 5 IN (SELECT x FROM a JOIN b ON a.id = b.id)",
	} {
		for name, query := range map[string]func(*Engine, string, ...Value) (*ResultSet, error){"engine": (*Engine).Query, "oracle": refQuery} {
			if rs, err := query(e, sql); fmt.Sprint(err) != want {
				t.Errorf("%s: %s = %v, %v; want %s", name, sql, rs, err, want)
			}
		}
	}
	// A name the subquery does not know is the outer row's.
	for name, query := range map[string]func(*Engine, string, ...Value) (*ResultSet, error){"engine": (*Engine).Query, "oracle": refQuery} {
		sql := "SELECT o.id FROM o WHERE EXISTS (SELECT 1 FROM a WHERE a.x + 4 = o.x)"
		if rs, err := query(e, sql); err != nil || fmt.Sprint(rs.Rows) != "[[1]]" {
			t.Errorf("%s: %s = %v, %v; want [[1]]", name, sql, rs, err)
		}
	}
}

// TestSubqueryRunsOncePerStatement: an uncorrelated IN or EXISTS
// subquery reads its table once per statement, a correlated one once per
// row it is evaluated for, and a subquery never reached (an empty outer
// table, a branch a false AND skips) never reads it.
func TestSubqueryRunsOncePerStatement(t *testing.T) {
	e := NewEngine("subonce", DialectANSI)
	mustExec(t, e, "CREATE TABLE o (id INTEGER, x INTEGER)")
	mustExec(t, e, "CREATE TABLE a (id INTEGER, x INTEGER)")
	mustExec(t, e, "CREATE TABLE empty (id INTEGER, x INTEGER)")
	var rows []Row
	for i := range 200 {
		rows = append(rows, Row{NewInt(int64(i)), NewInt(int64(i % 7))})
	}
	if _, err := e.InsertRows("o", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.InsertRows("a", rows[:50]); err != nil {
		t.Fatal(err)
	}
	log := recordPaths(e)
	for _, c := range []struct {
		sql   string
		want  string // the count
		reads int    // of table a
	}{
		{"SELECT COUNT(*) FROM o WHERE o.x IN (SELECT a.x FROM a WHERE a.x > 2)", "[[113]]", 1},
		{"SELECT COUNT(*) FROM o WHERE x IN (SELECT x FROM a WHERE x > 2)", "[[113]]", 1},
		{"SELECT COUNT(*) FROM o WHERE EXISTS (SELECT 1 FROM a WHERE a.x = 6)", "[[200]]", 1},
		{"SELECT COUNT(*) FROM o WHERE o.x NOT IN (SELECT a.x FROM a WHERE a.x > 2) AND o.id < 10", "[[6]]", 1},
		{"SELECT COUNT(*) FROM o WHERE EXISTS (SELECT 1 FROM a WHERE a.id = o.id + 100)", "[[0]]", 200},
		{"SELECT COUNT(*) FROM o WHERE o.id < 20 AND EXISTS (SELECT 1 FROM a WHERE a.x = o.x + 1)", "[[18]]", 20},
		// Correlated through a nested subquery: the middle one reads a
		// once per outer row, and the inner one once per middle row.
		{"SELECT COUNT(*) FROM o WHERE o.id < 3 AND o.x IN (SELECT a.x FROM a WHERE a.id IN (SELECT a2.id FROM a a2 WHERE a2.id = o.id))", "[[3]]", 3 + 3*50},
		{"SELECT COUNT(*) FROM empty WHERE x IN (SELECT x FROM a)", "[[0]]", 0},
		{"SELECT COUNT(*) FROM o WHERE o.id < 0 AND o.x IN (SELECT a.x FROM a)", "[[0]]", 0},
	} {
		log.take()
		rs := mustQuery(t, e, c.sql)
		if got := fmt.Sprint(rs.Rows); got != c.want {
			t.Errorf("%s = %s, want %s", c.sql, got, c.want)
		}
		reads := 0
		for _, p := range log.take() {
			if strings.HasPrefix(p, "a:") {
				reads++
			}
		}
		if reads != c.reads {
			t.Errorf("%s read a %d times, want %d", c.sql, reads, c.reads)
		}
		if want, err := refQuery(e, c.sql); err != nil || fmt.Sprint(want.Rows) != c.want {
			t.Errorf("oracle: %s = %v, %v", c.sql, want, err)
		}
	}
}

// TestNaNComparesEqualOnlyToNaN: a DOUBLE NaN equals only a NaN and sorts
// before every other number, so it matches no equality with a number, one
// DISTINCT value holds every NaN, and ORDER BY puts it first.
func TestNaNComparesEqualOnlyToNaN(t *testing.T) {
	e := NewEngine("nan", DialectANSI)
	mustExec(t, e, "CREATE TABLE f (id INTEGER, f DOUBLE)")
	if _, err := e.InsertRows("f", []Row{
		{NewInt(1), NewFloat(7)}, {NewInt(2), NewFloat(math.NaN())}, {NewInt(3), NewFloat(math.Inf(-1))},
		{NewInt(4), NewFloat(math.NaN())}, {NewInt(5), NewFloat(5.5)},
	}); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		"SELECT id FROM f WHERE f = 5.5 AND f = 7":                          "[]",
		"SELECT id FROM f WHERE f = 7":                                      "[[1]]",
		"SELECT id FROM f WHERE f < 0":                                      "[[2] [3] [4]]",
		"SELECT id FROM f WHERE f <> 7 OR f IS NULL":                        "[[2] [3] [4] [5]]",
		"SELECT id FROM f ORDER BY f, id":                                   "[[2] [4] [3] [5] [1]]",
		"SELECT COUNT(DISTINCT f) FROM f":                                   "[[4]]",
		"SELECT a.id FROM f a JOIN f b ON a.f = b.f":                        "[[1] [2] [2] [3] [4] [4] [5]]",
		"SELECT a.id FROM f a JOIN f b ON a.f = b.f OR 1 = 0 ORDER BY a.id": "[[1] [2] [2] [3] [4] [4] [5]]",
		"SELECT MIN(f), MAX(f) FROM f":                                      "[[NaN 7]]",
	} {
		for name, query := range map[string]func(*Engine, string, ...Value) (*ResultSet, error){"engine": (*Engine).Query, "oracle": refQuery} {
			if rs, err := query(e, sql); err != nil || fmt.Sprint(rs.Rows) != want {
				t.Errorf("%s: %s = %v, %v; want %s", name, sql, rs, err, want)
			}
		}
	}
}

// TestCompiledErrorTiming: compiling raises nothing. An unknown column or
// a constant that fails raises its error, the oracle's, only when it is
// evaluated: not in a CASE arm or the right side of an AND that is not
// reached, nor in a WHERE over no rows.
func TestCompiledErrorTiming(t *testing.T) {
	e := NewEngine("timing", DialectANSI)
	mustExec(t, e, "CREATE TABLE t (id INTEGER, v DOUBLE)")
	mustExec(t, e, "CREATE TABLE empty (id INTEGER, v DOUBLE)")
	mustExec(t, e, "INSERT INTO t VALUES (1, 1.5), (2, 2.5)")
	for _, c := range []struct{ unreached, reached string }{
		{"SELECT CASE WHEN id > 0 THEN 1 ELSE nosuch END FROM t", "SELECT CASE WHEN id > 1 THEN 1 ELSE nosuch END FROM t"},
		{"SELECT id FROM t WHERE id < 0 AND nosuch = 1", "SELECT id FROM t WHERE id > 1 AND nosuch = 1"},
		{"SELECT id FROM t WHERE id < 0 AND t.nosuch = 1", "SELECT id FROM t WHERE id > 0 AND t.nosuch = 1"},
		{"SELECT id FROM empty WHERE nosuch = 1", "SELECT id FROM t WHERE nosuch = 1"},
		{"SELECT 1 / 0 FROM empty", "SELECT 1 / 0 FROM t"},
		{"SELECT id FROM t WHERE id < 0 AND 1 / 0 = 1", "SELECT id FROM t WHERE id > 1 AND 1 / 0 = 1"},
		{"SELECT CASE WHEN id > 0 THEN 1 ELSE ABS(1 / 0) END FROM t", "SELECT CASE WHEN id > 1 THEN 1 ELSE ABS(1 / 0) END FROM t"},
		{"SELECT COUNT(*) FROM empty GROUP BY id HAVING SUM(v) > 1 / 0", "SELECT COUNT(*) FROM t GROUP BY id HAVING SUM(v) > 1 / 0"},
		{"SELECT id FROM t WHERE NULL IN (SELECT 1 / 0 FROM empty)", "SELECT id FROM t WHERE NULL IN (SELECT 1 / 0 FROM t)"},
	} {
		if _, err := e.Query(c.unreached); err != nil {
			t.Errorf("%s: %v", c.unreached, err)
		}
		_, err := e.Query(c.reached)
		_, want := refQuery(e, c.reached)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: %v, oracle %v", c.reached, err, want)
		}
	}
}

// TestNullInEmptySubquery: x IN over no rows is FALSE and x NOT IN is
// TRUE, for a NULL x too (SQL-92 §8.4); over some rows a NULL x is NULL.
func TestNullInEmptySubquery(t *testing.T) {
	e := NewEngine("nullin", DialectANSI)
	mustExec(t, e, "CREATE TABLE t (id INTEGER, k INTEGER)")
	mustExec(t, e, "CREATE TABLE empty (k INTEGER)")
	mustExec(t, e, "INSERT INTO t VALUES (1, NULL), (2, 5)")
	for _, c := range []struct{ sql, want string }{
		{"SELECT id FROM t WHERE k NOT IN (SELECT k FROM empty)", "[[1] [2]]"},
		{"SELECT id FROM t WHERE NOT k IN (SELECT k FROM empty)", "[[1] [2]]"},
		{"SELECT id FROM t WHERE k NOT IN (SELECT id FROM t)", "[[2]]"},
		{"SELECT NULL IN (SELECT k FROM empty), NULL NOT IN (SELECT k FROM empty), NULL IN (SELECT id FROM t)", "[[FALSE TRUE NULL]]"},
	} {
		got := fmt.Sprint(mustQuery(t, e, c.sql).Rows)
		ref, err := refQuery(e, c.sql)
		if err != nil || got != c.want || fmt.Sprint(ref.Rows) != c.want {
			t.Errorf("%s: %s, oracle %v (%v); want %s", c.sql, got, ref, err, c.want)
		}
	}
}

// TestCompiledEvalAllocs: a compiled filter and projection — columns,
// literals, comparisons, arithmetic, ABS, COALESCE, IN, CASE — allocate
// only when they are compiled, so evaluating them over 20 000 rows
// allocates what it does over 2 000.
func TestCompiledEvalAllocs(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := NewParser(DialectANSI).ParseStatement("SELECT ABS(v0 - 1) * 2, COALESCE(v1, run, 0), event_id + 1, v0 / 3, CASE WHEN run = 102 THEN 'a' END FROM ev " +
		"WHERE run >= 101 AND v1 > 0.25 AND (v0 < 100 OR event_id = 7) AND NOT v1 IS NULL AND run IN (101, 102, 103)")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	sch := make(rowSchema, len(aggBenchCols))
	for i, c := range aggBenchCols {
		sch[i] = colBinding{qualifier: "ev", name: c}
	}
	pool := make([]Row, 1024)
	for i := range pool {
		pool[i] = aggBenchRow(i)
	}
	exprs := []Expr{sel.Where}
	for _, it := range sel.Items {
		exprs = append(exprs, it.Expr)
	}
	out := make(Row, len(exprs))
	run := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			fr, fns := (&evalEnv{}).compile(sch, true, exprs...)
			kept := 0
			for i := range n {
				fr.row, fr.rownum = pool[i%len(pool)], int64(kept+1)
				for j, fn := range fns {
					v, err := fn(fr)
					if err != nil {
						t.Fatal(err)
					}
					out[j] = v
				}
				if decides(out[0], true) {
					kept++
				}
			}
			if kept == 0 {
				t.Fatal("the filter kept no row")
			}
		})
	}
	small, large := run(2000), run(20000)
	t.Logf("allocs: %.0f over 2 000 rows, %.0f over 20 000", small, large)
	if large != small {
		t.Errorf("compiled evaluation allocates %.0f times over 20 000 rows, %.0f over 2 000", large, small)
	}
}

// TestUpdateSeesStatementSnapshot: an UPDATE's WHERE and SET see the
// table as the statement found it, not the rows it has already updated,
// whether a subquery over the table is uncorrelated (run once, wherever
// it is first reached) or correlated (run per row).
func TestUpdateSeesStatementSnapshot(t *testing.T) {
	for _, c := range []struct{ update, want string }{
		{"UPDATE t SET x = 1 WHERE 3 IN (SELECT x FROM t)", "[[1 1] [2 1]]"},
		// The subquery is first reached on row 2, after row 1 matched.
		{"UPDATE t SET x = x + 10 WHERE x = 3 OR 13 IN (SELECT x FROM t)", "[[1 13] [2 7]]"},
		{"UPDATE t SET x = x + 4 WHERE NOT EXISTS (SELECT 1 FROM t t2 WHERE t2.x = t.x - 4)", "[[1 7] [2 7]]"},
		{"UPDATE t SET x = CASE WHEN 3 IN (SELECT x FROM t) THEN 0 ELSE 1 END", "[[1 0] [2 0]]"},
	} {
		e := NewEngine("snapshot", DialectANSI)
		mustExec(t, e, "CREATE TABLE t (id INTEGER, x INTEGER)")
		mustExec(t, e, "INSERT INTO t VALUES (1, 3), (2, 7)")
		if _, err := e.Exec(c.update); err != nil {
			t.Fatalf("%s: %v", c.update, err)
		}
		if got := fmt.Sprint(mustQuery(t, e, "SELECT id, x FROM t ORDER BY id").Rows); got != c.want {
			t.Errorf("%s: rows %s, want %s", c.update, got, c.want)
		}
	}
}
