package unity

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gridrdb/internal/sqlengine"
)

// rowStrings encodes a result multiset for order-insensitive comparison.
func rowStrings(rows []sqlengine.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for _, v := range r {
			fmt.Fprintf(&sb, "%d|%s\x00", v.Kind, v.String())
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// execBoth runs one query on buildFederation's federation (ExecuteStreamOp)
// and on one engine holding the same tables, asserts identical result
// multisets, and returns the stream's execution report.
func execBoth(t *testing.T, f *Federation, q string, params ...sqlengine.Value) *StreamExec {
	t.Helper()
	plan, err := f.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := singleEngine(t).Query(q, params...)
	if err != nil {
		t.Fatal(err)
	}
	it, ex, err := f.ExecuteStreamOp(context.Background(), plan, params...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sqlengine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("columns = %v, want %v", got.Columns, want.Columns)
	}
	gs, ws := rowStrings(got.Rows), rowStrings(want.Rows)
	if len(gs) == 0 || !reflect.DeepEqual(gs, ws) {
		t.Fatalf("stream returned %q, one engine %q", gs, ws)
	}
	return ex
}

func TestStreamOpCrossDatabaseJoin(t *testing.T) {
	f := buildFederation(t)
	plan, err := f.PlanQuery("SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run")
	if err != nil {
		t.Fatal(err)
	}
	// runs (2 rows) is smaller than events (4 rows): build stays right.
	if op := plan.Explain().Operator; op != "pipelined hash-join(build=right)" {
		t.Fatalf("operator = %q, want pipelined hash-join(build=right)", op)
	}
	ex := execBoth(t, f, "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run")
	if ex.Operator != "pipelined hash-join(build=right)" {
		t.Fatalf("executed operator = %q", ex.Operator)
	}
	if ex.Stats == nil || ex.Stats.BuildRows != 2 {
		t.Fatalf("stats = %+v, want BuildRows=2", ex.Stats)
	}
	if ex.Stats.Spilled {
		t.Fatal("tiny join spilled")
	}
}

func TestStreamOpBuildSideFromStats(t *testing.T) {
	f := buildFederation(t)
	// Flipped join order: events (4 rows) on the left of runs (2 rows)
	// still builds the smaller runs side; runs on the left builds left.
	plan, err := f.PlanQuery("SELECT r.detector, e.e_tot FROM runs r JOIN events e ON r.run = e.run")
	if err != nil {
		t.Fatal(err)
	}
	if op := plan.Explain().Operator; op != "pipelined hash-join(build=left)" {
		t.Fatalf("operator = %q, want pipelined hash-join(build=left)", op)
	}
	execBoth(t, f, "SELECT r.detector, e.e_tot FROM runs r JOIN events e ON r.run = e.run")
}

func TestStreamOpLeftJoin(t *testing.T) {
	f := buildFederation(t)
	ex := execBoth(t, f, "SELECT e.event_id, r.detector FROM events e LEFT JOIN runs r ON e.run = r.run")
	// Run 102 has no runs row: the LEFT join must pad it, and a LEFT
	// join always builds right regardless of stats.
	if ex.Operator != "pipelined hash-join(build=right)" {
		t.Fatalf("executed operator = %q", ex.Operator)
	}
}

func TestStreamOpOverBudgetJoin(t *testing.T) {
	f := buildFederation(t)
	// A 1-byte budget puts both sides over it: the join still plans the
	// hash join, its sub-queries stay as the user wrote them (no ORDER BY
	// pushed to the members), and the build Grace-spills.
	f.ScratchMaxBytes = 1
	q := "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run"
	plan, err := f.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if op := plan.Explain().Operator; op != "pipelined hash-join(build=right)" {
		t.Fatalf("operator = %q, want pipelined hash-join(build=right)", op)
	}
	for _, sub := range plan.Subs {
		if strings.Contains(strings.ToUpper(sub.SQL), "ORDER BY") {
			t.Fatalf("sub-query carries an ORDER BY: %s", sub.SQL)
		}
	}
	ex := execBoth(t, f, q)
	if ex.Stats == nil || !ex.Stats.Spilled || ex.Stats.SpillPartitions == 0 {
		t.Fatalf("over-budget join did not spill: stats %+v", ex.Stats)
	}
}

func TestStreamOpUnionAcrossDatabases(t *testing.T) {
	f := buildFederation(t)
	ex := execBoth(t, f, "SELECT run FROM events UNION SELECT run FROM runs")
	if ex.Operator != "pipelined union(scan, scan)" {
		t.Fatalf("executed operator = %q", ex.Operator)
	}
}

func TestStreamOpParamsReachPipeline(t *testing.T) {
	f := buildFederation(t)
	ex := execBoth(t, f,
		"SELECT e.event_id FROM events e JOIN runs r ON e.run = r.run WHERE e.e_tot > ?",
		sqlengine.NewFloat(3.0))
	if !strings.HasPrefix(ex.Operator, "pipelined") {
		t.Fatalf("executed operator = %q", ex.Operator)
	}
}

// TestStreamOpSubquery: a subquery's tables are loads of the plan, opened
// beside the join's inputs, and the pipeline runs the subquery over them —
// correlated or not, at any depth — with the join's operator label.
func TestStreamOpSubquery(t *testing.T) {
	for _, tc := range []struct {
		sql string
		// loads is how many sub-queries run: the join's two inputs and one
		// per table the subqueries read, even a table the join reads too.
		loads int64
	}{
		{"SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE e.run IN (SELECT run FROM runs)", 3},
		{"SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE EXISTS (SELECT 1 FROM lookup l WHERE l.k = e.event_id)", 3},
		{"SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run WHERE e.run NOT IN (SELECT run FROM runs WHERE run IN (SELECT k + 100 FROM lookup))", 4},
	} {
		f := buildFederation(t)
		plan, err := f.PlanQuery(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if op := plan.Explain().Operator; op != "pipelined hash-join(build=right)" {
			t.Errorf("%s: explain = %q", tc.sql, op)
		}
		if ex := execBoth(t, f, tc.sql); ex.Operator != "pipelined hash-join(build=right)" {
			t.Errorf("%s: executed = %q", tc.sql, ex.Operator)
		}
		if _, loads, _ := f.Stats(); loads != tc.loads {
			t.Errorf("%s: %d sub-queries ran, want %d", tc.sql, loads, tc.loads)
		}
	}
}

// TestStreamOpEngineShapes: the shapes the operators took over from the
// materializing executor run pipelined over two member databases and
// answer what one engine holding every table answers.
func TestStreamOpEngineShapes(t *testing.T) {
	ref := singleEngine(t)
	for _, tc := range []struct {
		name, sql, operator string
		ordered             bool
	}{
		{"group by over a join", "SELECT r.detector, COUNT(*), SUM(e.e_tot) FROM events e JOIN runs r ON e.run = r.run GROUP BY r.detector HAVING COUNT(*) > 0",
			"pipelined hash-join(build=right)", false},
		{"aggregate without group by", "SELECT COUNT(*), MAX(e.e_tot) FROM events e JOIN runs r ON e.run = r.run",
			"pipelined hash-join(build=right)", false},
		{"three tables", "SELECT e.event_id, r.detector, l.v FROM events e JOIN runs r ON e.run = r.run JOIN lookup l ON l.k = e.event_id",
			"pipelined hash-join(build=right) + hash-join(build=right)", false},
		{"right join", "SELECT e.event_id, r.detector FROM runs r RIGHT JOIN events e ON e.run = r.run",
			"pipelined hash-join(build=left)", false},
		{"comma join", "SELECT e.event_id, r.detector FROM events e, runs r WHERE e.run = r.run AND r.detector = 'CMS'",
			"pipelined hash-join(build=right)", false},
		{"non-equi join", "SELECT e.event_id, r.run FROM events e JOIN runs r ON e.run < r.run",
			"pipelined nested-loop", false},
		{"cross join", "SELECT e.event_id, r.detector FROM events e CROSS JOIN runs r",
			"pipelined nested-loop", false},
		{"order by a non-output expression", "SELECT e.event_id FROM events e JOIN runs r ON e.run = r.run ORDER BY r.detector DESC, e.e_tot",
			"pipelined hash-join(build=right)", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFederation(t)
			plan, err := f.PlanQuery(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			it, ex, err := f.ExecuteStreamOp(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Operator != tc.operator || plan.Explain().Operator != tc.operator {
				t.Errorf("operator = %q (explain %q), want %q", ex.Operator, plan.Explain().Operator, tc.operator)
			}
			got, err := sqlengine.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Query(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			g, w := rowStrings(got.Rows), rowStrings(want.Rows)
			if tc.ordered {
				g, w = []string{fmt.Sprint(got.Rows)}, []string{fmt.Sprint(want.Rows)}
			}
			if len(w) == 0 || !reflect.DeepEqual(g, w) || !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Errorf("%v %q, one engine answers %v %q", got.Columns, g, want.Columns, w)
			}
		})
	}
}

// TestAggregateInExpressionsFederated: an aggregate nested in a function,
// CASE, IS NULL or BETWEEN, or used as an ORDER BY key, evaluates per
// group whether the statement is pushed down to a member database or
// runs pipelined over a join of two.
func TestAggregateInExpressionsFederated(t *testing.T) {
	f := federate(t,
		member{"aggmy", sqlengine.DialectMySQL,
			"CREATE TABLE `t` (`id` BIGINT PRIMARY KEY, `g` BIGINT, `v` DOUBLE);" +
				"INSERT INTO `t` VALUES (1,1,1.5),(2,1,NULL),(3,2,4.0)"},
		member{"aggms", sqlengine.DialectMSSQL,
			"CREATE TABLE [u] ([id] BIGINT PRIMARY KEY);" +
				"INSERT INTO [u] VALUES (1),(2),(3)"})
	for _, tc := range aggExprCases {
		for _, shape := range []struct{ from, operator string }{
			{"FROM t", "pushdown"},
			{"FROM t JOIN u ON t.id = u.id", "pipelined hash-join(build=right)"},
		} {
			sql := strings.Replace(tc.sql, "FROM t", shape.from, 1)
			t.Run(sql, func(t *testing.T) {
				plan, err := f.PlanQuery(sql)
				if err != nil {
					t.Fatal(err)
				}
				it, ex, err := f.ExecuteStreamOp(context.Background(), plan)
				if err != nil {
					t.Fatal(err)
				}
				if ex.Operator != shape.operator {
					t.Errorf("operator = %q, want %q", ex.Operator, shape.operator)
				}
				got, err := sqlengine.Drain(it)
				if err != nil {
					t.Fatal(err)
				}
				if g := fmt.Sprint(got.Rows); g != tc.want {
					t.Errorf("rows %s, want %s", g, tc.want)
				}
			})
		}
	}
}

// aggExprCases are the statements over t(id, g, v) = (1,1,1.5) (2,1,NULL)
// (3,2,4.0) whose aggregates the engine once refused outside + - * / and
// unary minus, with their answers. Every one orders its groups, so the
// answer is one string.
var aggExprCases = []struct{ sql, want string }{
	{"SELECT g, COALESCE(SUM(v), 0) FROM t GROUP BY g ORDER BY g", "[[1 1.5] [2 4]]"},
	{"SELECT g, ROUND(AVG(v), 1) FROM t GROUP BY g ORDER BY g", "[[1 1.5] [2 4]]"},
	{"SELECT g, CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END FROM t GROUP BY g ORDER BY g", "[[1 many] [2 one]]"},
	{"SELECT g, SUM(v) IS NULL FROM t GROUP BY g ORDER BY g", "[[1 FALSE] [2 FALSE]]"},
	{"SELECT g FROM t GROUP BY g HAVING COUNT(*) BETWEEN 2 AND 5", "[[1]]"},
	{"SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC", "[[1 2] [2 1]]"},
}

func TestStreamOpPushdownUnaffected(t *testing.T) {
	f := buildFederation(t)
	plan, err := f.PlanQuery("SELECT event_id FROM events WHERE run = 100")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Pushdown {
		t.Fatal("single-table query should push down")
	}
	if op := plan.Explain().Operator; op != "pushdown" {
		t.Fatalf("operator = %q, want pushdown", op)
	}
	ex := execBoth(t, f, "SELECT event_id FROM events WHERE run = 100")
	if ex.Operator != "pushdown" {
		t.Fatalf("executed operator = %q", ex.Operator)
	}
}
