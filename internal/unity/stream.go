package unity

import (
	"context"
	"fmt"
	"strings"

	"gridrdb/internal/sqlengine"
)

// This file is the federation side of sqlengine's operator pipeline
// (internal/sqlengine/operators.go), the executor every member database
// also runs and the federation's only one: planStream decides at plan
// time how a decomposed query runs — rows flowing from the member
// databases and peers through join/filter/project/aggregate operators
// straight to the consumer — and ExecuteStreamOp executes that decision.
// The tables IN/EXISTS subqueries read are loads like any other, opened
// beside the branch inputs; the pipeline drains each the first time a
// subquery reads it.
//
// The payoff is the paper's integration bottleneck: integrating by first
// loading every partial result into one database makes time-to-first-row
// and peak memory grow with the total row count. Pipelined,
// time-to-first-row is the build side plus one probe row, and memory is
// bounded by the build side — or by ScratchMaxBytes once the build
// spills — plus the tables subqueries read.

// planStream analyzes a decomposed plan for the streaming operators and
// picks each join step's strategy. The analysis fails only for a shape
// that needs columns a load has none of: those loads' tables become the
// plan's NeedColumns.
func (f *Federation) planStream(plan *Plan) {
	colsOf := func(table string) []string {
		ld := plan.loadFor(table)
		if ld == nil {
			return nil
		}
		return ld.cols
	}
	sp, _ := sqlengine.AnalyzeStreamSelect(plan.sel, colsOf)
	if sp == nil {
		for _, ld := range plan.loads {
			if ld.cols == nil {
				plan.NeedColumns = append(plan.NeedColumns, ld.logical)
			}
		}
		return
	}
	ops := make([]string, len(sp.Branches))
	for i, br := range sp.Branches {
		ops[i] = "scan"
		if len(br.Joins) > 0 {
			steps := make([]string, len(br.Joins))
			for j := range br.Joins {
				steps[j] = planJoin(plan, br, j)
			}
			ops[i] = strings.Join(steps, " + ")
		}
	}
	plan.stream = sp
	if len(ops) == 1 {
		plan.streamOp = "pipelined " + ops[0]
	} else {
		plan.streamOp = "pipelined union(" + strings.Join(ops, ", ") + ")"
	}
}

// planJoin picks the build side of a branch's join step i and returns
// its label. Only the first step joins two member loads whose row counts
// the specs know: it builds the smaller side. A later step builds its new
// right table. A build side over the byte budget spills by Grace
// partitioning (sqlengine's hashJoinIter), so no join needs another
// operator.
func planJoin(plan *Plan, br *sqlengine.StreamBranch, i int) string {
	j := br.Joins[i]
	switch {
	case len(j.LeftKeys) == 0:
		return "nested-loop"
	case j.Kind == sqlengine.JoinRight:
		return "hash-join(build=left)"
	case j.Kind == sqlengine.JoinLeft || i > 0:
		// LEFT joins must build the right side so unmatched probe rows
		// stream out.
		return "hash-join(build=right)"
	}
	lt, rt := br.Inputs[0].Table, br.Inputs[1].Table
	lrows, rrows := plan.specRows(lt), plan.specRows(rt)
	if lrows > 0 && (rrows <= 0 || lrows < rrows) {
		j.BuildLeft = true
		return "hash-join(build=left)"
	}
	return "hash-join(build=right)"
}

// specRows returns the spec's row-count statistic for a logical table
// (0 = unknown).
func (p *Plan) specRows(logical string) int {
	ld := p.loadFor(logical)
	if ld == nil {
		return 0
	}
	return ld.loc.Spec.Rows
}

// ---- execution ----

// StreamExec reports how a streaming execution ran: which operator
// pipeline served it and, for pipelined plans, the operator telemetry —
// valid once the stream has been drained or closed.
type StreamExec struct {
	// Operator is "pushdown" or the plan's pipelined operator label.
	Operator string
	// Stats is the operator telemetry sink (nil on pushdown).
	Stats *sqlengine.StreamStats
}

// ExecuteStreamOp runs a previously produced plan as an incremental row
// stream and reports which execution path served it. Pushdown plans
// stream straight off the chosen member database. Decomposed plans run on
// the pipelined operators: each per-table sub-query is opened as a live
// cursor and rows flow through the join/filter/project pipeline as the
// sources produce them, and buffering operators spill to disk past
// ScratchMaxBytes. A plan whose NeedColumns is not empty fails here,
// naming the tables and where they are.
//
// No path is bounded by a per-source budget: the cursors are paced by the
// consumer, which may legitimately hold them open longer than any one
// source should be allowed to stall a scatter-gather.
func (f *Federation) ExecuteStreamOp(ctx context.Context, plan *Plan, params ...sqlengine.Value) (sqlengine.RowIter, *StreamExec, error) {
	if plan.Pushdown {
		f.queries.Add(1)
		f.pushdowns.Add(1)
		f.subqueries.Add(1)
		f.logSubquery(ctx, plan.pushSource, "")
		it, err := f.runOnSourceStreamCtx(ctx, plan.pushSource, plan.Subs[0].SQL, params)
		if err != nil {
			return nil, nil, err
		}
		return it, &StreamExec{Operator: "pushdown"}, nil
	}
	if plan.stream == nil {
		at := make([]string, len(plan.NeedColumns))
		for i, table := range plan.NeedColumns {
			at[i] = fmt.Sprintf("%s at %s", table, plan.loadFor(table).source)
		}
		return nil, nil, fmt.Errorf("unity: this query needs the columns of %s, which its plan was not given", strings.Join(at, ", "))
	}
	return f.executeStreamPlan(ctx, plan, params)
}

// executeStreamPlan opens one live source cursor per branch input (a
// table referenced by two branches runs its sub-query once per branch —
// each cursor is single-consumer) and one per table the subqueries read,
// and composes the operator pipeline over them. The cursors are opened
// through scatter: a member database does its work before its first
// response, so opening one after another would cost the sum of the
// sources where the scatter costs the max.
func (f *Federation) executeStreamPlan(ctx context.Context, plan *Plan, params []sqlengine.Value) (sqlengine.RowIter, *StreamExec, error) {
	f.queries.Add(1)
	var srcs []sqlengine.StreamSource
	for _, br := range plan.stream.Branches {
		srcs = append(srcs, br.Inputs...)
	}
	srcs = append(srcs, plan.stream.Subqueries...)
	inputs := make([]sqlengine.StreamInput, len(srcs))
	err := f.scatter(ctx, len(srcs), func(_ context.Context, i int) error {
		ld := plan.loadFor(srcs[i].Table)
		if ld == nil {
			return fmt.Errorf("unity: stream plan references unplanned table %q", srcs[i].Table)
		}
		f.logSubquery(ctx, ld.source, ld.logical)
		// The cursor outlives the scatter: it runs under the caller's ctx.
		it, err := f.openLoad(ctx, ld)
		if err != nil {
			return err
		}
		inputs[i] = sqlengine.StreamInput{Source: srcs[i], Columns: ld.cols, Iter: it}
		return nil
	})
	if err != nil {
		for _, in := range inputs {
			if in.Iter != nil {
				in.Iter.Close()
			}
		}
		return nil, nil, err
	}
	f.subqueries.Add(int64(len(inputs)))
	stats := &sqlengine.StreamStats{}
	out, err := sqlengine.StreamSelect(ctx, plan.stream, inputs, params, sqlengine.StreamOptions{
		BudgetBytes: f.ScratchMaxBytes,
		Stats:       stats,
	})
	if err != nil {
		return nil, nil, err // StreamSelect closed the inputs
	}
	return out, &StreamExec{Operator: plan.streamOp, Stats: stats}, nil
}
