package sqlengine

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/leaktest"
)

// streamTable is one input table for the differential harness: the same
// rows are loaded into a reference engine and handed to the streaming
// operators as raw iterators.
type streamTable struct {
	name  string
	cols  []string
	types []string
	rows  []Row
}

func (st streamTable) createSQL() string {
	defs := make([]string, len(st.cols))
	for i, c := range st.cols {
		defs[i] = c + " " + st.types[i]
	}
	return "CREATE TABLE " + st.name + " (" + strings.Join(defs, ", ") + ")"
}

// runStreamDiff executes sql on the oracle (refexec_test.go) over an
// engine loaded with the tables and on the streaming operators over
// plain slice iterators, then asserts the results are
// row-identical. When orderSensitive, row order must match exactly;
// otherwise both sides are compared as sorted multisets (shapes like
// spilled joins legitimately permute output order). mutate lets tests
// override the planner's build side before execution.
func runStreamDiff(t *testing.T, tables []streamTable, sql string, params []Value, opts StreamOptions, orderSensitive bool, mutate func(*StreamPlan)) *StreamStats {
	t.Helper()
	eng := NewEngine("ref", DialectANSI)
	byName := make(map[string]streamTable)
	for _, tb := range tables {
		if _, err := eng.Exec(tb.createSQL()); err != nil {
			t.Fatalf("create %s: %v", tb.name, err)
		}
		if _, err := eng.InsertRows(tb.name, tb.rows); err != nil {
			t.Fatalf("load %s: %v", tb.name, err)
		}
		byName[tb.name] = tb
	}
	want, err := refQuery(eng, sql, params...)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}

	st, err := NewParser(eng.dialect).ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("not a SELECT: %T", st)
	}
	colsOf := func(table string) []string {
		if tb, ok := byName[table]; ok {
			return tb.cols
		}
		return nil
	}
	plan, reason := AnalyzeStreamSelect(sel, colsOf)
	if plan == nil {
		t.Fatalf("query not streamable: %s", reason)
	}
	if mutate != nil {
		mutate(plan)
	}
	var srcs []StreamSource
	for _, br := range plan.Branches {
		srcs = append(srcs, br.Inputs...)
	}
	var inputs []StreamInput
	for _, src := range append(srcs, plan.Subqueries...) {
		tb, ok := byName[src.Table]
		if !ok {
			t.Fatalf("no such table %q", src.Table)
		}
		inputs = append(inputs, StreamInput{
			Source:  src,
			Columns: tb.cols,
			Iter:    SliceIter(&ResultSet{Columns: tb.cols, Rows: tb.rows}),
		})
	}
	stats := &StreamStats{}
	opts.Stats = stats
	it, err := StreamSelect(context.Background(), plan, inputs, params, opts)
	if err != nil {
		t.Fatalf("StreamSelect: %v", err)
	}
	got, err := Drain(it)
	if err != nil {
		t.Fatalf("drain stream: %v", err)
	}

	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("columns: got %v want %v", got.Columns, want.Columns)
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("columns: got %v want %v", got.Columns, want.Columns)
		}
	}
	gk, wk := rowKeys(got.Rows), rowKeys(want.Rows)
	if !orderSensitive {
		sort.Strings(gk)
		sort.Strings(wk)
	}
	if len(gk) != len(wk) {
		t.Fatalf("row count: got %d want %d\n got=%v\nwant=%v", len(gk), len(wk), gk, wk)
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Fatalf("row %d differs:\n got %s\nwant %s", i, gk[i], wk[i])
		}
	}
	return stats
}

// rowKeys encodes rows kind-exactly (appendIndexKey would collapse 1 and 1.0).
func rowKeys(rows []Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%d|%s\x00", v.Kind, v.String())
		}
		keys[i] = sb.String()
	}
	return keys
}

// genTables builds a randomized fact/dim pair with NULLs sprinkled into
// both the join keys and the payload columns.
func genTables(rng *rand.Rand, factRows, dimRows int) []streamTable {
	dim := streamTable{
		name:  "dim",
		cols:  []string{"run", "tag", "w"},
		types: []string{"INTEGER", "VARCHAR", "DOUBLE"},
	}
	for i := 0; i < dimRows; i++ {
		key := NewInt(int64(i % (dimRows/2 + 1))) // duplicate keys
		if rng.Intn(10) == 0 {
			key = Null()
		}
		dim.rows = append(dim.rows, Row{key, NewString(fmt.Sprintf("tag-%d", rng.Intn(5))), NewFloat(rng.Float64() * 10)})
	}
	fact := streamTable{
		name:  "fact",
		cols:  []string{"event_id", "run", "e_tot"},
		types: []string{"INTEGER", "INTEGER", "DOUBLE"},
	}
	for i := 0; i < factRows; i++ {
		key := NewInt(int64(rng.Intn(dimRows + 3)))
		if rng.Intn(12) == 0 {
			key = Null()
		}
		val := NewFloat(rng.Float64() * 100)
		if rng.Intn(15) == 0 {
			val = Null()
		}
		fact.rows = append(fact.rows, Row{NewInt(int64(i)), key, val})
	}
	return []streamTable{fact, dim}
}

func TestStreamScanFilterProject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tables := genTables(rng, 200, 20)
	queries := []string{
		"SELECT event_id, e_tot FROM fact WHERE e_tot > 50",
		"SELECT f.event_id, f.e_tot * 2 FROM fact f WHERE f.run IS NOT NULL",
		"SELECT event_id FROM fact WHERE rownum <= 7",
		"SELECT DISTINCT run FROM fact",
		"SELECT event_id, e_tot FROM fact ORDER BY e_tot DESC, event_id",
		"SELECT event_id FROM fact ORDER BY 1 DESC LIMIT 5 OFFSET 3",
	}
	for _, q := range queries {
		t.Run(q, func(t *testing.T) {
			runStreamDiff(t, tables, q, nil, StreamOptions{}, true, nil)
		})
	}
}

func TestStreamHashJoinDifferential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables := genTables(rng, 150+rng.Intn(100), 10+rng.Intn(20))
		queries := []string{
			"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run",
			"SELECT f.event_id, d.tag, f.e_tot FROM fact f LEFT JOIN dim d ON f.run = d.run",
			"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run AND f.e_tot > d.w",
			"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run WHERE d.tag = 'tag-1' ORDER BY f.event_id",
			"SELECT f.event_id FROM fact f JOIN dim d ON f.run = d.run WHERE f.e_tot > ?",
		}
		for _, q := range queries {
			params := []Value(nil)
			if strings.Contains(q, "?") {
				params = []Value{NewFloat(25)}
			}
			t.Run(fmt.Sprintf("seed%d/%s", seed, q), func(t *testing.T) {
				// Build side defaults to the right input, which matches the
				// executor's probe order, so output order is identical.
				runStreamDiff(t, tables, q, params, StreamOptions{}, true, nil)
			})
		}
	}
}

func TestStreamHashJoinBuildLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tables := genTables(rng, 120, 15)
	q := "SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run"
	// Building the left side probes in right-input order, so compare as
	// multisets.
	runStreamDiff(t, tables, q, nil, StreamOptions{}, false, func(p *StreamPlan) {
		p.Branches[0].Joins[0].BuildLeft = true
	})
}

func TestStreamHashJoinSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tables := genTables(rng, 300, 40)
	tmp := t.TempDir()
	buildLeft := func(p *StreamPlan) { p.Branches[0].Joins[0].BuildLeft = true }
	cases := []struct {
		q      string
		mutate func(*StreamPlan)
	}{
		{"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run", nil},
		{"SELECT f.event_id, d.tag FROM fact f LEFT JOIN dim d ON f.run = d.run", nil},
		{"SELECT f.event_id, d.tag FROM fact f RIGHT JOIN dim d ON f.run = d.run", nil},
		{"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run AND f.e_tot > d.w", nil},
		// Select list reversed only so the subtest name differs from the
		// first case's.
		{"SELECT d.tag, f.event_id FROM fact f JOIN dim d ON f.run = d.run", buildLeft},
		// No equi-key: every row hashes to the one empty key, so the whole
		// build side lands in one partition.
		{"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.e_tot > d.w", nil},
	}
	for _, c := range cases {
		t.Run(c.q, func(t *testing.T) {
			// A 512-byte budget forces the Grace partitioned path; spilled
			// partitions emit in partition order, so compare as multisets.
			stats := runStreamDiff(t, tables, c.q, nil, StreamOptions{BudgetBytes: 512, TempDir: tmp}, false, c.mutate)
			if !stats.Spilled || stats.SpillPartitions == 0 || stats.SpillBytes == 0 {
				t.Fatalf("expected spill, got stats %+v", stats)
			}
			ents, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("spill files left behind: %v", ents)
			}
		})
	}
}

// TestHashJoinProbeAllocsIndependentOfRows: a probe row keys itself into
// a reused buffer and looks the build table up without a string, so a
// join whose 20 000 probe rows match nothing allocates about as much as
// over 2 000 (within 1.1x): the build side and the pipeline's set-up.
func TestHashJoinProbeAllocsIndependentOfRows(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := NewParser(DialectANSI).ParseStatement("SELECT p.run FROM ev p JOIN bd b ON p.event_id = b.event_id")
	if err != nil {
		t.Fatal(err)
	}
	pool := make([]Row, 1024)
	for i := range pool {
		pool[i] = aggBenchRow(i)
	}
	build := &ResultSet{Columns: aggBenchCols}
	for i := 0; i < 500; i++ {
		build.Rows = append(build.Rows, aggBenchRow(100000+i))
	}
	run := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			plan, reason := AnalyzeStreamSelect(st.(*SelectStmt), func(string) []string { return aggBenchCols })
			if plan == nil {
				t.Fatalf("not streamable: %s", reason)
			}
			ins := []StreamInput{
				{Source: plan.Branches[0].Inputs[0], Columns: aggBenchCols, Iter: &cycleIter{pool: pool, n: n}},
				{Source: plan.Branches[0].Inputs[1], Columns: aggBenchCols, Iter: SliceIter(build)},
			}
			it, err := StreamSelect(context.Background(), plan, ins, nil, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rs, err := Drain(it); err != nil || len(rs.Rows) != 0 {
				t.Fatalf("drain: %v", err)
			}
		})
	}
	small, large := run(2000), run(20000)
	if large > 1.1*small {
		t.Fatalf("a hash join allocates %.0f times over 20 000 probe rows, %.0f over 2 000; want within 1.1x", large, small)
	}
	t.Logf("allocs: %.0f over 2 000 probe rows, %.0f over 20 000", small, large)
}

// TestJoinTableAllocsPerKey: the build side holds its rows flat, so a
// build of 2 000 distinct keys allocates one key string per key and,
// besides, only the growth of its map and slices.
func TestJoinTableAllocsPerKey(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const keys = 2000
	rows := make([]Row, keys)
	for i := range rows {
		rows[i] = aggBenchRow(i)
	}
	var key []byte
	allocs := testing.AllocsPerRun(5, func() {
		jt := newJoinTable()
		for _, row := range rows {
			key = appendIndexKey(key[:0], row[0])
			jt.add(key, row)
		}
	})
	t.Logf("a build of %d distinct keys: %.0f allocs", keys, allocs)
	if allocs > keys+128 {
		t.Errorf("a build of %d distinct keys allocates %.0f times, want <= %d", keys, allocs, keys+128)
	}
}

// TestHashJoinMatchesInBuildOrder: a probe row's matches come back in the
// order their rows reached the build side, in memory and Grace-spilled.
func TestHashJoinMatchesInBuildOrder(t *testing.T) {
	st, err := NewParser(DialectANSI).ParseStatement("SELECT p.event_id, b.event_id FROM ev p JOIN bd b ON p.run = b.run")
	if err != nil {
		t.Fatal(err)
	}
	probe := &ResultSet{Columns: aggBenchCols}
	for i := 0; i < 3; i++ {
		probe.Rows = append(probe.Rows, Row{NewInt(int64(i)), NewInt(int64(i)), Null(), Null()})
	}
	build := &ResultSet{Columns: aggBenchCols}
	for i := 0; i < 300; i++ {
		build.Rows = append(build.Rows, Row{NewInt(int64(i)), NewInt(int64(i % 3)), Null(), Null()})
	}
	for _, budget := range []int64{0, 1} {
		plan, reason := AnalyzeStreamSelect(st.(*SelectStmt), func(string) []string { return aggBenchCols })
		if plan == nil {
			t.Fatalf("not streamable: %s", reason)
		}
		ins := []StreamInput{
			{Source: plan.Branches[0].Inputs[0], Columns: aggBenchCols, Iter: SliceIter(probe)},
			{Source: plan.Branches[0].Inputs[1], Columns: aggBenchCols, Iter: SliceIter(build)},
		}
		stats := &StreamStats{}
		it, err := StreamSelect(context.Background(), plan, ins, nil, StreamOptions{BudgetBytes: budget, TempDir: t.TempDir(), Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Drain(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != len(build.Rows) || stats.Spilled != (budget == 1) {
			t.Fatalf("budget %d: %d rows (spilled %v), want %d", budget, len(rs.Rows), stats.Spilled, len(build.Rows))
		}
		last := map[int64]int64{}
		for _, row := range rs.Rows {
			p, b := row[0].Int, row[1].Int
			if prev, ok := last[p]; ok && b < prev {
				t.Fatalf("budget %d: probe row %d matched build row %d after %d", budget, p, b, prev)
			}
			last[p] = b
		}
	}
}

func TestStreamUnionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tables := genTables(rng, 150, 20)
	queries := []string{
		"SELECT run FROM fact UNION ALL SELECT run FROM dim",
		"SELECT run FROM fact UNION SELECT run FROM dim",
		"SELECT run FROM fact WHERE e_tot > 50 UNION SELECT run FROM dim UNION ALL SELECT run FROM fact WHERE e_tot < 10",
	}
	for _, q := range queries {
		t.Run(q, func(t *testing.T) {
			runStreamDiff(t, tables, q, nil, StreamOptions{}, true, nil)
		})
	}
}

func TestStreamSortSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tables := genTables(rng, 400, 10)
	tmp := t.TempDir()
	q := "SELECT event_id, e_tot FROM fact ORDER BY e_tot, event_id DESC"
	// External sort must match the in-memory stable sort exactly.
	stats := runStreamDiff(t, tables, q, nil, StreamOptions{BudgetBytes: 1024, TempDir: tmp}, true, nil)
	if !stats.Spilled || stats.SpillRuns < 2 {
		t.Fatalf("expected multi-run external sort, got %+v", stats)
	}
	ents, _ := os.ReadDir(tmp)
	if len(ents) != 0 {
		t.Fatalf("run files left behind: %v", ents)
	}
}

// TestStreamEngineShapesSpill: the shapes the engine runs unbudgeted —
// RIGHT, nested-loop, comma and multi-step joins, aggregates, hidden sort
// keys — still match the oracle when a federation's budget spills them.
func TestStreamEngineShapesSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tables := genTables(rng, 300, 40)
	tmp := t.TempDir()
	for _, q := range []string{
		"SELECT f.event_id, d.tag FROM fact f RIGHT JOIN dim d ON f.run = d.run",
		"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.e_tot < d.w",
		"SELECT f.event_id, d.w FROM fact f, dim d WHERE f.run = d.run AND d.w > 5",
		"SELECT f.event_id, d.tag, g.event_id FROM fact f JOIN dim d ON f.run = d.run LEFT JOIN fact g ON g.run = d.run AND g.e_tot > f.e_tot",
		// Spilled partitions reorder rows: a float SUM could differ in its
		// last digit, so only order-free aggregates here.
		"SELECT d.tag, COUNT(*), MAX(f.e_tot) FROM fact f JOIN dim d ON f.run = d.run GROUP BY d.tag",
		"SELECT event_id FROM fact ORDER BY e_tot, event_id DESC",
	} {
		t.Run(q, func(t *testing.T) {
			stats := runStreamDiff(t, tables, q, nil, StreamOptions{BudgetBytes: 512, TempDir: tmp}, false, nil)
			if !stats.Spilled {
				t.Fatalf("expected spill, got stats %+v", stats)
			}
			if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
				t.Fatalf("spill files left behind: %v", ents)
			}
		})
	}
}

func TestStreamSortStabilityAcrossRuns(t *testing.T) {
	// All-equal keys: output must preserve arrival order even when the
	// sort spills into several runs (the merge ties break on arrival
	// index).
	tb := streamTable{name: "t", cols: []string{"k", "n"}, types: []string{"INTEGER", "INTEGER"}}
	for i := 0; i < 500; i++ {
		tb.rows = append(tb.rows, Row{NewInt(1), NewInt(int64(i))})
	}
	tmp := t.TempDir()
	stats := runStreamDiff(t, []streamTable{tb}, "SELECT k, n FROM t ORDER BY k", nil,
		StreamOptions{BudgetBytes: 2048, TempDir: tmp}, true, nil)
	if !stats.Spilled {
		t.Fatalf("expected spill, got %+v", stats)
	}
}

// ---- analyzer rejections ----

func TestAnalyzeStreamSelectRejections(t *testing.T) {
	eng := NewEngine("ref", DialectANSI)
	// Every input's columns are unknown (nil tableCols): what remains
	// rejected is what needs the columns — a star, or a join with no
	// equi-key the analyzer can attribute.
	cases := []struct {
		sql    string
		reason string
	}{
		{"SELECT * FROM fact", "star select over tables with unknown columns"},
		{"SELECT event_id FROM fact, dim", "join without equi-keys"},
		{"SELECT event_id FROM fact f JOIN dim d ON f.e_tot > d.w", "join without equi-keys"},
		{"SELECT event_id FROM fact f JOIN dim d ON run = d.run", "join without equi-keys"},
		{"SELECT f.event_id FROM fact f JOIN dim d ON f.run = d.run CROSS JOIN dim e", "join without equi-keys"},
	}
	for _, c := range cases {
		st, err := NewParser(eng.dialect).ParseStatement(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		plan, reason := AnalyzeStreamSelect(st.(*SelectStmt), nil)
		if plan != nil {
			t.Fatalf("%q: expected rejection, got plan", c.sql)
		}
		if reason != c.reason {
			t.Fatalf("%q: reason %q, want %q", c.sql, reason, c.reason)
		}
	}
	// The shapes the analyzer used to reject all run, columns unknown; a
	// subquery's tables are listed as inputs, each once, in the order the
	// statement names them at any depth.
	for _, c := range []struct {
		sql  string
		subs string
	}{
		{"SELECT COUNT(*) FROM fact", ""},
		{"SELECT run FROM fact GROUP BY run", ""},
		{"SELECT f.event_id FROM fact f, dim d WHERE f.run = d.run", ""},
		{"SELECT f.event_id, d.tag FROM fact f RIGHT JOIN dim d ON f.run = d.run", ""},
		{"SELECT f.event_id FROM fact f JOIN dim d ON f.run = d.run JOIN fact g ON g.event_id = f.event_id", ""},
		{"SELECT event_id, e_tot FROM fact ORDER BY e_tot + 1", ""},
		{"SELECT event_id FROM fact UNION SELECT run, tag FROM dim", ""},
		{"SELECT event_id FROM fact WHERE run IN (SELECT run FROM dim)", "dim"},
		{"SELECT f.event_id FROM fact f JOIN dim d ON f.run = d.run WHERE EXISTS (SELECT 1 FROM dim)", "dim"},
		{"SELECT run, COUNT(*) FROM fact GROUP BY run HAVING COUNT(*) IN (SELECT run FROM dim)", "dim"},
		{`SELECT event_id FROM fact WHERE run IN (SELECT d.run FROM dim d JOIN tags t ON d.tag = t.tag
			WHERE EXISTS (SELECT 1 FROM fact g WHERE g.run = d.run)) AND run NOT IN (SELECT run FROM dim)
			UNION SELECT run FROM dim WHERE CASE WHEN EXISTS (SELECT 1 FROM calib) THEN 1 ELSE 0 END = 1`, "dim tags fact calib"},
	} {
		st, err := NewParser(eng.dialect).ParseStatement(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		plan, reason := AnalyzeStreamSelect(st.(*SelectStmt), nil)
		if plan == nil {
			t.Errorf("%q: rejected (%s)", c.sql, reason)
			continue
		}
		var subs []string
		for _, src := range plan.Subqueries {
			subs = append(subs, src.Table)
		}
		if got := strings.Join(subs, " "); got != c.subs {
			t.Errorf("%q: subquery tables %q, want %q", c.sql, got, c.subs)
		}
	}
}

// TestStreamSubqueryDifferential: IN/EXISTS subqueries — correlated,
// nested, over a table the main query also reads, in the select list —
// run on the pipeline over the caller's inputs and answer what the
// oracle answers.
func TestStreamSubqueryDifferential(t *testing.T) {
	tables := genTables(rand.New(rand.NewSource(7)), 80, 20)
	for _, sql := range []string{
		"SELECT event_id FROM fact WHERE run IN (SELECT run FROM dim WHERE tag = 'tag-1')",
		"SELECT event_id FROM fact WHERE run NOT IN (SELECT run FROM dim)",
		"SELECT f.event_id, d.tag FROM fact f JOIN dim d ON f.run = d.run WHERE EXISTS (SELECT 1 FROM fact g WHERE g.run = d.run AND g.e_tot > f.e_tot)",
		"SELECT event_id FROM fact f WHERE NOT EXISTS (SELECT 1 FROM dim d WHERE d.run = f.run AND d.run IN (SELECT run FROM fact WHERE e_tot < 20))",
		"SELECT run, COUNT(*) FROM fact GROUP BY run HAVING COUNT(*) > 1 AND run IN (SELECT run FROM dim)",
		"SELECT event_id, CASE WHEN EXISTS (SELECT 1 FROM dim d WHERE d.run = fact.run) THEN 'y' ELSE 'n' END FROM fact",
		"SELECT run FROM dim UNION SELECT run FROM fact WHERE run IN (SELECT run FROM dim WHERE w > 5)",
	} {
		runStreamDiff(t, tables, sql, nil, StreamOptions{}, false, nil)
	}
	// Inputs no subquery read — here the WHERE rejects every row before
	// its subquery runs — are still closed with the pipeline.
	plan, _ := AnalyzeStreamSelect(mustParseSelect(t, "SELECT a.id FROM a WHERE a.id < 0 AND a.k IN (SELECT k FROM b)"),
		func(string) []string { return []string{"id", "k"} })
	closed := 0
	mk := func(src StreamSource) StreamInput {
		rs := &ResultSet{Columns: []string{"id", "k"}, Rows: []Row{{NewInt(1), NewInt(1)}}}
		return StreamInput{Source: src, Iter: &closeCounter{RowIter: SliceIter(rs), n: &closed}}
	}
	it, err := StreamSelect(context.Background(), plan, []StreamInput{mk(plan.Branches[0].Inputs[0]), mk(plan.Subqueries[0])}, nil, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := Drain(it); err != nil || len(rs.Rows) != 0 || closed != 2 {
		t.Fatalf("rows %v, err %v, %d of 2 inputs closed", rs, err, closed)
	}
}

func mustParseSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, err := NewParser(DialectANSI).ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*SelectStmt)
}

// closeCounter counts Close calls on the iterator it wraps.
type closeCounter struct {
	RowIter
	n *int
}

func (c *closeCounter) Close() error {
	*c.n++
	return c.RowIter.Close()
}

// ---- cancellation / cleanup ----

// failIter yields n rows then fails with a sticky error.
type failIter struct {
	cols []string
	n    int
	err  error
	i    int
}

func (f *failIter) Columns() []string { return f.cols }
func (f *failIter) Next() (Row, error) {
	if f.i >= f.n {
		return nil, f.err
	}
	f.i++
	return Row{NewInt(int64(f.i)), NewInt(int64(f.i % 3))}, nil
}
func (f *failIter) Close() error { return nil }

func joinPlanForTest(t *testing.T) *StreamPlan {
	t.Helper()
	eng := NewEngine("ref", DialectANSI)
	st, err := NewParser(eng.dialect).ParseStatement("SELECT a.id FROM a JOIN b ON a.k = b.k")
	if err != nil {
		t.Fatal(err)
	}
	colsOf := func(string) []string { return []string{"id", "k"} }
	plan, reason := AnalyzeStreamSelect(st.(*SelectStmt), colsOf)
	if plan == nil {
		t.Fatalf("not streamable: %s", reason)
	}
	return plan
}

func TestStreamSpillCleanupOnEarlyClose(t *testing.T) {
	tmp := t.TempDir()
	plan := joinPlanForTest(t)
	rows := make([]Row, 400)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 5))}
	}
	mk := func(src StreamSource) StreamInput {
		return StreamInput{Source: src, Columns: []string{"id", "k"},
			Iter: SliceIter(&ResultSet{Columns: []string{"id", "k"}, Rows: rows})}
	}
	stats := &StreamStats{}
	it, err := StreamSelect(context.Background(), plan,
		[]StreamInput{mk(plan.Branches[0].Inputs[0]), mk(plan.Branches[0].Inputs[1])},
		nil, StreamOptions{BudgetBytes: 256, TempDir: tmp, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := it.Next(); err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := it.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
	if !stats.Spilled {
		t.Fatalf("expected spill, got %+v", stats)
	}
	ents, _ := os.ReadDir(tmp)
	if len(ents) != 0 {
		t.Fatalf("spill files left after early close: %v", ents)
	}
}

func TestStreamSpillCleanupOnInputError(t *testing.T) {
	tmp := t.TempDir()
	plan := joinPlanForTest(t)
	rows := make([]Row, 400)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 5))}
	}
	boom := fmt.Errorf("relay input died")
	inputs := []StreamInput{
		{Source: plan.Branches[0].Inputs[0], Columns: []string{"id", "k"},
			Iter: &failIter{cols: []string{"id", "k"}, n: 50, err: boom}},
		{Source: plan.Branches[0].Inputs[1], Columns: []string{"id", "k"},
			Iter: SliceIter(&ResultSet{Columns: []string{"id", "k"}, Rows: rows})},
	}
	it, err := StreamSelect(context.Background(), plan, inputs, nil,
		StreamOptions{BudgetBytes: 256, TempDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drain(it); err == nil {
		t.Fatal("expected input error to surface")
	}
	ents, _ := os.ReadDir(tmp)
	if len(ents) != 0 {
		t.Fatalf("spill files left after input error: %v", ents)
	}
}

func TestStreamSpillCleanupOnCancel(t *testing.T) {
	tmp := t.TempDir()
	plan := joinPlanForTest(t)
	rows := make([]Row, 400)
	for i := range rows {
		rows[i] = Row{NewInt(int64(i)), NewInt(int64(i % 5))}
	}
	mk := func(src StreamSource) StreamInput {
		return StreamInput{Source: src, Columns: []string{"id", "k"},
			Iter: SliceIter(&ResultSet{Columns: []string{"id", "k"}, Rows: rows})}
	}
	ctx, cancel := context.WithCancel(context.Background())
	it, err := StreamSelect(ctx, plan,
		[]StreamInput{mk(plan.Branches[0].Inputs[0]), mk(plan.Branches[0].Inputs[1])},
		nil, StreamOptions{BudgetBytes: 256, TempDir: tmp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatalf("first next: %v", err)
	}
	cancel()
	for i := 0; i < 1000; i++ {
		if _, err := it.Next(); err != nil {
			if err == io.EOF {
				break // stream may drain before a ctx check lands
			}
			if err != context.Canceled {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ents, _ := os.ReadDir(tmp)
	if len(ents) != 0 {
		t.Fatalf("spill files left after cancel: %v", ents)
	}
}

func TestSpillCodecRoundTrip(t *testing.T) {
	sd, err := newSpillDir(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.remove()
	sw, err := sd.newWriter("codec")
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Null(), NewInt(-42), NewFloat(3.5), NewString("héllo\x00world"), NewBool(true), NewBytes([]byte{0, 1, 2})},
		{NewInt(1 << 40), NewString(""), NewBool(false), Null(), NewFloat(-0.25), NewBytes(nil)},
	}
	for _, r := range rows {
		if err := sw.writeRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	sr, err := openSpill(sw.path)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.close()
	for i, want := range rows {
		got, err := sr.readRow()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		gk, wk := rowKeys([]Row{got}), rowKeys([]Row{want})
		if gk[0] != wk[0] {
			t.Fatalf("row %d: got %s want %s", i, gk[0], wk[0])
		}
	}
	if _, err := sr.readRow(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestSpillTornRecords cuts a spill file of mixed-kind rows at every byte
// offset. readRow returns the rows whose records the cut leaves whole,
// then io.EOF if the cut falls on a record boundary and an error anywhere
// else; it never returns a short or garbled row.
func TestSpillTornRecords(t *testing.T) {
	dir := t.TempDir()
	sd, err := newSpillDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sd.remove()
	sw, err := sd.newWriter("torn")
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Null(), NewInt(-42), NewFloat(math.Copysign(0, -1)), NewString("héllo"), NewBool(true), NewBytes([]byte{0, 1, 2})},
		{},
		// A 200-byte string makes the record's length prefix two bytes.
		{NewTime(time.Date(2005, 6, 15, 12, 30, 45, 123456789, time.UTC)), NewString(strings.Repeat("x", 200)), NewBytes(nil), NewBool(false)},
		{NewInt(1 << 40), NewString(""), NewBytes([]byte{}), NewFloat(-0.25)},
	}
	var ends []int64 // offset after each record
	for _, r := range rows {
		if err := sw.writeRow(r); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, sw.bytes)
	}
	if err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(sw.path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.spill")
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(torn, whole[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		complete, boundary := 0, cut == 0
		for _, end := range ends {
			if end <= int64(cut) {
				complete++
				boundary = boundary || end == int64(cut)
			}
		}
		sr, err := openSpill(torn)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		for {
			row, err := sr.readRow()
			if err != nil {
				if boundary != (err == io.EOF) {
					t.Fatalf("cut at %d (record boundary %v): got %v after %d rows", cut, boundary, err, got)
				}
				break
			}
			if got == len(rows) || string(appendFrameRow(nil, row)) != string(appendFrameRow(nil, rows[got])) {
				t.Fatalf("cut at %d: row %d read as %v", cut, got, row)
			}
			got++
		}
		sr.close()
		if got != complete {
			t.Fatalf("cut at %d: read %d rows, want the %d whole records", cut, got, complete)
		}
	}
}
