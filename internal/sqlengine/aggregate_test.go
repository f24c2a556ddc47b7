package sqlengine

import (
	"context"
	"fmt"
	"io"
	"testing"

	"gridrdb/internal/leaktest"
)

// TestAggregateInExpressions: an aggregate nested in a function, CASE,
// IS NULL or BETWEEN, or used as an ORDER BY key, is computed per group
// and the rest of its expression evaluated over the result.
func TestAggregateInExpressions(t *testing.T) {
	e := NewEngine("aggexpr", DialectANSI)
	mustExec(t, e, `CREATE TABLE t (id INTEGER, g INTEGER, v DOUBLE)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 1, 1.5), (2, 1, NULL), (3, 2, 4.0)`)
	for _, tc := range []struct{ sql, want string }{
		{"SELECT g, COALESCE(SUM(v), 0) FROM t GROUP BY g", "[[1 1.5] [2 4]]"},
		{"SELECT g, ROUND(AVG(v), 1) FROM t GROUP BY g", "[[1 1.5] [2 4]]"},
		{"SELECT g, CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM t GROUP BY g", "[[1 many] [2 one]]"},
		{"SELECT SUM(v) IS NULL FROM t GROUP BY g", "[[FALSE] [FALSE]]"},
		{"SELECT g FROM t GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 5", "[[1]]"},
		{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC", "[[1 2] [2 1]]"},
	} {
		rs, err := e.Query(tc.sql)
		if err != nil {
			t.Errorf("%s: %v", tc.sql, err)
			continue
		}
		if got := fmt.Sprint(rs.Rows); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}

// aggBenchSQL is the shape of the cached_refresh benchmark's queries.
const aggBenchSQL = "SELECT run, COUNT(*) AS n, AVG(v0) AS mean_v0 FROM ev WHERE v1 > 0.25 GROUP BY run"

var aggBenchCols = []string{"event_id", "run", "v0", "v1"}

// aggBenchRow is event i of a table whose events spread over 4 runs.
func aggBenchRow(i int) Row {
	return Row{NewInt(int64(i)), NewInt(int64(100 + i%4)), NewFloat(float64(i%97) / 9.7), NewFloat(float64(i%13) / 13)}
}

// TestAggregateAllocsIndependentOfRows: an aggregate's groups hold
// accumulators, not rows, and the per-row operators reuse one evaluation
// context and key buffer, so a member engine's aggregate allocates about
// as much over 20 000 rows as over 2 000 (it measures 110 at both).
func TestAggregateAllocsIndependentOfRows(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{2000, 20000} {
		e := NewEngine("aggallocs", DialectANSI)
		mustExec(t, e, "CREATE TABLE ev (event_id INTEGER PRIMARY KEY, run INTEGER, v0 DOUBLE, v1 DOUBLE)")
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = aggBenchRow(i)
		}
		if _, err := e.InsertRows("ev", rows); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if rs, err := e.Query(aggBenchSQL); err != nil || len(rs.Rows) != 4 {
				t.Fatalf("query: %v", err)
			}
		})
		t.Logf("%d rows: %.0f allocs", n, allocs)
		if allocs > 256 {
			t.Errorf("aggregating %d rows allocates %.0f times, want <= 256", n, allocs)
		}
	}
}

// cycleIter yields n rows cycling over pool: a generating input that
// allocates nothing per row.
type cycleIter struct {
	pool []Row
	i, n int
}

func (c *cycleIter) Columns() []string { return aggBenchCols }

func (c *cycleIter) Next() (Row, error) {
	if c.i == c.n {
		return nil, io.EOF
	}
	c.i++
	return c.pool[c.i%len(c.pool)], nil
}

func (c *cycleIter) Close() error { return nil }

// TestStreamAggregateAllocsIndependentOfRows: the federation's GROUP BY
// (StreamSelect) over a 100 000-row input allocates no more than twice
// what it does over 10 000 rows: it holds 4 groups, not their rows.
func TestStreamAggregateAllocsIndependentOfRows(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := NewParser(DialectANSI).ParseStatement(aggBenchSQL)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]Row, 1024)
	for i := range pool {
		pool[i] = aggBenchRow(i)
	}
	run := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			plan, reason := AnalyzeStreamSelect(st.(*SelectStmt), func(string) []string { return aggBenchCols })
			if plan == nil {
				t.Fatalf("not streamable: %s", reason)
			}
			in := StreamInput{Source: plan.Branches[0].Inputs[0], Columns: aggBenchCols, Iter: &cycleIter{pool: pool, n: n}}
			it, err := StreamSelect(context.Background(), plan, []StreamInput{in}, nil, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rs, err := Drain(it); err != nil || len(rs.Rows) != 4 {
				t.Fatalf("drain: %v", err)
			}
		})
	}
	small, large := run(10000), run(100000)
	if large > 2*small {
		t.Fatalf("StreamSelect GROUP BY allocates %.0f times over 100 000 rows, %.0f over 10 000; want at most twice", large, small)
	}
	t.Logf("allocs: %.0f over 10 000 rows, %.0f over 100 000", small, large)
}

// BenchmarkEngineAggregate runs aggBenchSQL, the cached_refresh
// benchmark's miss shape, through Engine.Query over a 2 000-row table of 8
// columns. Profile the member-engine aggregate with
//
//	go test -run xxx -bench EngineAggregate -cpuprofile cpu.out ./internal/sqlengine
func BenchmarkEngineAggregate(b *testing.B) {
	e := NewEngine("aggbench", DialectANSI)
	if _, err := e.Exec("CREATE TABLE ev (event_id INTEGER PRIMARY KEY, run INTEGER, " +
		"v0 DOUBLE, v1 DOUBLE, v2 DOUBLE, v3 DOUBLE, v4 DOUBLE, v5 DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	rows := make([]Row, 2000)
	for i := range rows {
		rows[i] = aggBenchRow(i)
		for j := 2; j < 6; j++ {
			rows[i] = append(rows[i], NewFloat(float64(i*7+j)/3.0001))
		}
	}
	if _, err := e.InsertRows("ev", rows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if rs, err := e.Query(aggBenchSQL); err != nil || len(rs.Rows) != 4 {
			b.Fatalf("query: %v", err)
		}
	}
}
