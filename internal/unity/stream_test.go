package unity

import (
	"context"
	"fmt"
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

// execBoth runs one query through the scratch reference (ExecuteContext)
// and the streaming path (ExecuteStreamOp), asserts identical result
// multisets, and returns the stream's execution report.
func execBoth(t *testing.T, f *Federation, q string, params ...sqlengine.Value) *StreamExec {
	t.Helper()
	plan, err := f.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.ExecuteContext(context.Background(), plan, params...)
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
	if len(gs) != len(ws) {
		t.Fatalf("stream returned %d rows, scratch %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("row multiset mismatch at %d:\n stream %q\n scratch %q", i, gs[i], ws[i])
		}
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

func TestStreamOpMergeJoin(t *testing.T) {
	f := buildFederation(t)
	// A 1-byte budget makes both sides "too big to build": the planner
	// pushes ORDER BY on the (numeric) join keys and merges.
	f.ScratchMaxBytes = 1
	plan, err := f.PlanQuery("SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run")
	if err != nil {
		t.Fatal(err)
	}
	if op := plan.Explain().Operator; op != "pipelined merge-join" {
		t.Fatalf("operator = %q, want pipelined merge-join", op)
	}
	for _, sub := range plan.Subs {
		if !strings.Contains(strings.ToUpper(sub.SQL), "ORDER BY") {
			t.Fatalf("merge-join sub-query lacks ORDER BY: %s", sub.SQL)
		}
	}
	execBoth(t, f, "SELECT e.event_id, r.detector FROM events e JOIN runs r ON e.run = r.run")
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

func TestStreamOpFallbackReasons(t *testing.T) {
	f := buildFederation(t)
	// Aggregation is not streamable: the scratch engine must serve it,
	// and explain must say why.
	q := "SELECT r.detector, COUNT(*) FROM events e JOIN runs r ON e.run = r.run GROUP BY r.detector"
	plan, err := f.PlanQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pe := plan.Explain()
	if pe.Operator != "scratch" || pe.StreamFallback != "aggregation" {
		t.Fatalf("explain = %q/%q, want scratch/aggregation", pe.Operator, pe.StreamFallback)
	}
	ex := execBoth(t, f, q)
	if ex.Operator != "scratch" || ex.Fallback != "aggregation" {
		t.Fatalf("executed = %q/%q, want scratch/aggregation", ex.Operator, ex.Fallback)
	}
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
