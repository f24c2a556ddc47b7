package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// This file is sqlengine's one SELECT executor: composable RowIter
// operators — table inputs, left-deep joins, filter, project or
// aggregate, DISTINCT, ORDER BY, OFFSET/LIMIT, UNION chains. The engine
// runs every SELECT on it over its own tables (exec.go), and the
// federation runs every decomposed plan on it over member loads
// and peer relays, so integrated rows are emitted as the sources produce
// them.
//
// Each operator compiles its expressions (expr.go) when it first sees
// its input's schema, and evaluates only the compiled form.
//
// An IN/EXISTS subquery runs through the same executor (exec.go) as in
// the engine: once per statement when uncorrelated, else once per row it
// is evaluated for. A caller without a database supplies one input per
// table the subqueries read (StreamPlan.Subqueries); the pipeline drains
// each the first time a subquery opens it and reads it from memory after.
// AnalyzeStreamSelect rejects only what needs columns the caller does not
// know: over an input whose columns are unknown until it is read (a peer
// table the caller has no column list for), a star in the select list or
// a join step without an equi-key it can attribute — that join would be a
// nested loop over a stream of unknown size.
//
// Operators that must buffer — a hash-join build side, an ORDER BY —
// are governed by a byte budget (StreamOptions.BudgetBytes): past it the
// hash join switches to a Grace-style partitioned spill and the sort
// writes sorted runs, both to temp files that are removed on Close on
// every exit path (success, error, cancellation). An aggregate holds its
// groups in memory, and a subquery's tables are held in memory for the
// life of the query once it has read them. A member engine runs its own
// SELECTs with no budget at all (BudgetBytes -1, exec.go): their hash
// builds and sorts hold their inputs in memory whole.

// StreamSource identifies one table input of a streaming branch.
type StreamSource struct {
	Table     string // logical table name (normalized)
	Qualifier string // alias if present, else table name (normalized)
}

// StreamJoin is one step of a branch's left-deep join: it joins the
// relation built so far with the branch's next input. LeftKeys and
// RightKeys are parallel column-name vectors of the equi-key, found in the
// ON condition (a comma join's in the WHERE); without keys the step is a
// nested loop. On is the residual re-checked on every key match: the full
// ON condition, nil for a comma join (the filter applies its WHERE) and
// for CROSS JOIN.
type StreamJoin struct {
	Kind      JoinKind // JoinInner, JoinLeft, JoinRight, or JoinCross (comma or CROSS JOIN)
	On        Expr
	LeftKeys  []string
	RightKeys []string
	// lq and rq name the input each key column resolved to.
	lq, rq []string

	// Build side, chosen by the caller's planner. The hash join builds
	// the right input unless BuildLeft is set (inner joins only: a LEFT
	// join must build the right side so unmatched probe rows can be
	// emitted). A RIGHT join always builds the left side.
	BuildLeft bool
}

// inner reports whether the step emits matched rows only (INNER, comma
// and CROSS joins), so either side may be built.
func (j *StreamJoin) inner() bool { return j.Kind == JoinInner || j.Kind == JoinCross }

// StreamBranch is one UNION branch of a streaming plan.
type StreamBranch struct {
	Sel *SelectStmt
	// Inputs are the branch's tables in the order they are joined: FROM's
	// first table, each JOIN's table, then the comma-joined rest of FROM.
	// Empty for a SELECT without FROM, which reads one empty row.
	Inputs []StreamSource
	// Joins[i] joins Inputs[:i+1] with Inputs[i+1].
	Joins []*StreamJoin

	// UnionAll records the link flag from this branch's statement to the
	// rest of the chain (meaningless for the last branch).
	UnionAll bool

	// OutCols are the branch's output column names, resolved at analysis
	// time. exprs compute them (stars expanded), followed by the ORDER BY
	// expressions that are not output columns: hidden columns, sorted on
	// and then trimmed. orderKeys index that row; orderErr, when set, fails
	// the sort at its first row (ORDER BY over no rows never fails).
	OutCols    []string
	exprs      []Expr
	orderKeys  []sortKey
	orderErr   error
	aggregated bool
	// err is a statement error found at analysis (an unresolvable t.*),
	// returned when the plan is composed.
	err error
}

// StreamPlan is the analyzed streaming form of a SELECT: the UNION chain
// flattened into branches, each reduced to its inputs and join steps
// plus the statement it came from.
type StreamPlan struct {
	Sel      *SelectStmt
	Branches []*StreamBranch
	// Subqueries are the tables the statement's IN/EXISTS subqueries read,
	// at any nesting depth, once each by name in first-appearance order.
	// StreamSelect takes one input per entry after the branch inputs.
	Subqueries []StreamSource
}

// sortKey is one resolved ORDER BY key: an ordinal into the projected row.
type sortKey struct {
	idx  int
	desc bool
}

// AnalyzeStreamSelect returns the plan the operators run sel with, or
// (nil, reason) naming the construct that needs columns tableCols did not
// know. tableCols, when non-nil, maps a logical table name to its column
// names; nil (or a nil answer) means an input's columns are known only
// once it is read. The plan lists the tables sel's subqueries read.
func AnalyzeStreamSelect(sel *SelectStmt, tableCols func(table string) []string) (*StreamPlan, string) {
	plan, reason := analyzeSelect(sel, tableCols)
	if plan != nil {
		plan.Subqueries = subqueryTables(sel)
	}
	return plan, reason
}

func analyzeSelect(sel *SelectStmt, tableCols func(string) []string) (*StreamPlan, string) {
	plan := &StreamPlan{Sel: sel}
	for s := sel; s != nil; s = s.Union {
		br, reason := analyzeBranch(s, tableCols)
		if br == nil {
			return nil, reason
		}
		plan.Branches = append(plan.Branches, br)
	}
	return plan, ""
}

// BranchTables lists the tables of one SELECT's scope, its FROM and
// JOIN references, in join order.
func BranchTables(sel *SelectStmt) []TableRef {
	if len(sel.From) == 0 {
		return nil
	}
	refs := make([]TableRef, 0, len(sel.From)+len(sel.Joins))
	refs = append(refs, sel.From[0])
	for _, jc := range sel.Joins {
		refs = append(refs, jc.Table)
	}
	return append(refs, sel.From[1:]...)
}

func analyzeBranch(sel *SelectStmt, tableCols func(string) []string) (*StreamBranch, string) {
	br := &StreamBranch{Sel: sel, UnionAll: sel.UnionAll}
	var (
		left  []sideInput // the inputs joined so far
		sch   rowSchema   // their columns, while all are known
		known = true
	)
	for i, tr := range BranchTables(sel) {
		src := sourceOf(tr)
		var cols []string
		if tableCols != nil {
			cols = tableCols(src.Table)
		}
		known = known && cols != nil
		in := sideInput{q: src.Qualifier, cols: cols}
		if i > 0 {
			j := joinStep(sel, i, left, in)
			if len(j.LeftKeys) == 0 && !known {
				return nil, "join without equi-keys"
			}
			br.Joins = append(br.Joins, j)
		}
		br.Inputs = append(br.Inputs, src)
		left = append(left, in)
		for _, c := range cols {
			sch = append(sch, colBinding{qualifier: src.Qualifier, name: c})
		}
	}

	if !known {
		for _, it := range sel.Items {
			if it.Star {
				return nil, "star select over tables with unknown columns"
			}
		}
	}
	cols, exprs, err := expandItems(sel.Items, sch)
	if err != nil {
		br.err = err
		return br, ""
	}
	br.OutCols = cols
	br.aggregated = len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range sel.Items {
		br.aggregated = br.aggregated || it.Expr != nil && ContainsAggregate(it.Expr)
	}
	for _, oi := range sel.OrderBy {
		idx, err := OutputOrdinal(oi.Expr, cols)
		switch {
		case err == nil && idx < 0 && sel.Distinct:
			err = errors.New("sqlengine: ORDER BY expression must reference an output column in this query")
		case err == nil && idx < 0:
			idx = len(exprs)
			exprs = append(exprs, oi.Expr)
		}
		if err != nil {
			if br.orderErr == nil {
				br.orderErr = err
			}
			continue
		}
		br.orderKeys = append(br.orderKeys, sortKey{idx: idx, desc: oi.Desc})
	}
	br.exprs = exprs
	return br, ""
}

// joinStep analyzes the join of input i (in) onto the inputs before it.
func joinStep(sel *SelectStmt, i int, left []sideInput, in sideInput) *StreamJoin {
	// A comma join hashes on the WHERE's equi-pairs and leaves the WHERE
	// itself to the filter.
	j, cond := &StreamJoin{Kind: JoinCross}, sel.Where
	if i <= len(sel.Joins) {
		jc := sel.Joins[i-1]
		j, cond = &StreamJoin{Kind: jc.Kind, On: jc.On}, jc.On
	}
	right := []sideInput{in}
	if j.Kind == JoinRight {
		// Pairs are found as for the mirrored LEFT join, the way the
		// engine has always run a RIGHT join.
		j.RightKeys, j.rq, j.LeftKeys, j.lq = equiKeys(cond, right, left)
	} else {
		j.LeftKeys, j.lq, j.RightKeys, j.rq = equiKeys(cond, left, right)
	}
	return j
}

func sourceOf(tr TableRef) StreamSource {
	q := tr.Alias
	if q == "" {
		q = tr.Name
	}
	return StreamSource{Table: normalizeName(tr.Name), Qualifier: normalizeName(q)}
}

// sideInput is one input of a join side at analysis time; cols is nil
// when its columns are unknown until it is read.
type sideInput struct {
	q    string
	cols []string
}

// resolveOn returns the qualifier of the one column of side that ref
// names, by rowSchema.lookup's rules. An input of unknown columns answers
// for references qualified with its name, and for no unqualified one.
func resolveOn(side []sideInput, ref *ColumnRef) (string, bool) {
	q, n := "", 0
	for _, in := range side {
		if ref.Table != "" && ref.Table != in.q {
			continue
		}
		if in.cols == nil {
			if ref.Table != "" {
				q, n = in.q, n+1
			}
			continue
		}
		for _, c := range in.cols {
			if c == ref.Column {
				q, n = in.q, n+1
			}
		}
	}
	return q, n == 1
}

// equiKeys extracts the top-level conjunctive `col = col` predicates of
// cond whose columns resolve one on each side (left-right, else
// right-left), as column names with the qualifiers they resolved to.
func equiKeys(cond Expr, left, right []sideInput) (lk, lq, rk, rq []string) {
	var walk func(e Expr)
	walk = func(e Expr) {
		be, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case "AND":
			walk(be.L)
			walk(be.R)
		case "=":
			a, aok := be.L.(*ColumnRef)
			b, bok := be.R.(*ColumnRef)
			if !aok || !bok {
				return
			}
			for _, p := range [2][2]*ColumnRef{{a, b}, {b, a}} {
				l, lok := resolveOn(left, p[0])
				r, rok := resolveOn(right, p[1])
				if lok && rok {
					lk, lq = append(lk, p[0].Column), append(lq, l)
					rk, rq = append(rk, p[1].Column), append(rq, r)
					return
				}
			}
		}
	}
	walk(cond)
	return lk, lq, rk, rq
}

// OutputOrdinal resolves an ORDER BY key to an output column the way the
// engine always has: an integer ordinal (an error when out of range), or
// a column reference whose name exactly one output column carries.
// Anything else is -1: an expression over the source row.
func OutputOrdinal(e Expr, outCols []string) (int, error) {
	if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
		n := int(lit.Val.Int)
		if n >= 1 && n <= len(outCols) {
			return n - 1, nil
		}
		return 0, errors.New("sqlengine: ORDER BY ordinal out of range")
	}
	found := -1
	if cr, ok := e.(*ColumnRef); ok {
		for i, c := range outCols {
			if c == cr.Column {
				if found >= 0 {
					return -1, nil
				}
				found = i
			}
		}
	}
	return found, nil
}

// Subqueries returns the IN/EXISTS sub-SELECTs of sel's own clauses —
// not those nested inside them, nor those of its UNION branches — in
// clause order: WHERE, HAVING, the select list, ON conditions, GROUP BY,
// ORDER BY.
func Subqueries(sel *SelectStmt) []*SelectStmt {
	subs := exprSubqueries(sel.Having, exprSubqueries(sel.Where, nil))
	for _, it := range sel.Items {
		subs = exprSubqueries(it.Expr, subs)
	}
	for _, jc := range sel.Joins {
		subs = exprSubqueries(jc.On, subs)
	}
	for _, g := range sel.GroupBy {
		subs = exprSubqueries(g, subs)
	}
	for _, oi := range sel.OrderBy {
		subs = exprSubqueries(oi.Expr, subs)
	}
	return subs
}

// exprSubqueries appends the IN (SELECT ...) and EXISTS statements of e.
func exprSubqueries(e Expr, out []*SelectStmt) []*SelectStmt {
	var buf [3]Expr
	for _, c := range children(e, buf[:0]) {
		out = exprSubqueries(c, out)
	}
	switch x := e.(type) {
	case *InExpr:
		if x.Sub != nil {
			out = append(out, x.Sub)
		}
	case *ExistsExpr:
		out = append(out, x.Sub)
	}
	return out
}

// subqueryTables lists the tables sel's subqueries read, at any depth,
// once each by name in first-appearance order.
func subqueryTables(sel *SelectStmt) []StreamSource {
	var out []StreamSource
	seen := map[string]bool{}
	var walk func(s *SelectStmt, inSub bool)
	walk = func(s *SelectStmt, inSub bool) {
		for ; s != nil; s = s.Union {
			for _, tr := range BranchTables(s) {
				if name := normalizeName(tr.Name); inSub && !seen[name] {
					seen[name] = true
					out = append(out, StreamSource{Table: name, Qualifier: name})
				}
			}
			for _, sub := range Subqueries(s) {
				walk(sub, true)
			}
		}
	}
	walk(sel, false)
	return out
}

// ---- Composition ----

// StreamInput supplies the live iterator for one StreamSource, in the
// order the plan's branches list them. Columns may carry the statically
// known column names; when nil they are taken from Iter.Columns() the
// first time the input is bound (which may open a lazy producer).
type StreamInput struct {
	Source  StreamSource
	Columns []string
	Iter    RowIter
}

// StreamStats accumulates operator telemetry for one streaming
// execution. Fields are plain (the pipeline is single-consumer); readers
// inspect them after the stream finishes.
type StreamStats struct {
	BuildRows  int64
	BuildBytes int64

	Spilled         bool
	SpillPartitions int64 // partition files written by Grace hash joins
	SpillRuns       int64 // sorted run files written by external sorts
	SpillBytes      int64
	SpillNanos      int64
}

// StreamOptions tunes a StreamSelect execution.
type StreamOptions struct {
	// BudgetBytes caps the in-memory footprint of buffering operators
	// (hash-join build side, sort buffer). Zero selects a default
	// (64 MiB); negative disables spilling (unbounded buffering).
	BudgetBytes int64
	// TempDir is the parent directory for spill files ("" = os.TempDir()).
	TempDir string
	// Stats, when non-nil, receives operator telemetry.
	Stats *StreamStats
}

const defaultStreamBudget = 64 << 20

func (o StreamOptions) budget() int64 {
	if o.BudgetBytes == 0 {
		return defaultStreamBudget
	}
	return o.BudgetBytes
}

// selectFunc runs the SELECT of an IN or EXISTS subquery in env: the
// statement's parameters and the row the subquery runs for.
type selectFunc func(sel *SelectStmt, env *evalEnv) (*ResultSet, error)

// evalEnv is what an operator's expressions see besides the row: the
// statement's parameters, the executor IN/EXISTS subqueries re-enter and,
// in a subquery, the frame of the row it runs for and that row's scope.
type evalEnv struct {
	params     []Value
	exec       selectFunc
	outer      *frame
	outerScope *scope
}

// compile compiles es for an operator over rows of schema sch (rownum:
// the operator numbers its rows), a nil Expr to a nil evalFn, and returns
// them with the frame they read. The operator re-points the frame's row
// at each row it evaluates. So a frame is valid only during the call that
// received it and nothing may keep it: a correlated subquery that
// receives it as outer finishes before the call returns.
func (e *evalEnv) compile(sch rowSchema, rownum bool, es ...Expr) (*frame, []evalFn) {
	c := &compiler{sc: &scope{schema: sch, rownum: rownum, outer: e.outerScope}}
	fns := make([]evalFn, len(es))
	for i, x := range es {
		if x != nil {
			fns[i] = c.compile(x).eval
		}
	}
	return &frame{env: e}, fns
}

// StreamSelect composes the streaming pipeline for an analyzed plan over
// live inputs: the branch inputs (flattened across branches, matching
// plan.Branches[i].Inputs order), then one per plan.Subqueries entry. It
// takes ownership of every input iterator: they are closed when the
// returned iterator is closed, or before returning an error.
func StreamSelect(ctx context.Context, plan *StreamPlan, inputs []StreamInput, params []Value, opts StreamOptions) (RowIter, error) {
	return streamSelect(ctx, plan, inputs, &evalEnv{params: params}, opts)
}

func streamSelect(ctx context.Context, plan *StreamPlan, inputs []StreamInput, env *evalEnv, opts StreamOptions) (RowIter, error) {
	want := len(plan.Subqueries)
	for _, br := range plan.Branches {
		want += len(br.Inputs)
	}
	err := plan.check()
	if err == nil && want != len(inputs) {
		err = fmt.Errorf("sqlengine: stream plan wants %d inputs, got %d", want, len(inputs))
	}
	if err != nil {
		for _, in := range inputs {
			in.Iter.Close()
		}
		return nil, err
	}
	var subs *subqueryInputs
	if n := len(inputs) - len(plan.Subqueries); n < len(inputs) {
		subs = &subqueryInputs{inputs: inputs[n:], rows: map[string]*ResultSet{}}
		env = &evalEnv{params: env.params, exec: (&executor{ctx: ctx, subs: subs}).execSelect}
		inputs = inputs[:n]
	}

	next := inputs
	// Fold the UNION chain right-to-left so dedupe wrapping matches the
	// engine's recursion: dedupe(b1 + dedupe(b2 + ...)).
	branchIters := make([]RowIter, len(plan.Branches))
	for i, br := range plan.Branches {
		branchIters[i] = composeBranch(ctx, br, next[:len(br.Inputs)], env, opts)
		next = next[len(br.Inputs):]
	}
	out := branchIters[len(branchIters)-1]
	for i := len(branchIters) - 2; i >= 0; i-- {
		out = &unionIter{cols: branchIters[i].Columns(), a: branchIters[i], b: out}
		if !plan.Branches[i].UnionAll {
			out = &distinctIter{in: out}
		}
	}
	if subs != nil {
		out = &subqueryIter{RowIter: out, subs: subs}
	}
	return out, nil
}

// subqueryInputs serves the tables a StreamSelect's subqueries read from
// the caller's inputs: an input is drained into memory (which closes it)
// the first time a subquery opens its table, and read from memory after.
type subqueryInputs struct {
	inputs []StreamInput // an input's Iter is nil once drained
	rows   map[string]*ResultSet
}

func (s *subqueryInputs) table(name string) (*ResultSet, error) {
	if rs, ok := s.rows[name]; ok {
		return rs, nil
	}
	for i := range s.inputs {
		in := &s.inputs[i]
		if in.Source.Table != name || in.Iter == nil {
			continue
		}
		rs, err := Drain(in.Iter)
		in.Iter = nil
		if err != nil {
			return nil, err
		}
		cols := in.Columns
		if cols == nil {
			cols = make([]string, len(rs.Columns))
			for j, c := range rs.Columns {
				cols[j] = normalizeName(c)
			}
		}
		rs.Columns = cols
		s.rows[name] = rs
		return rs, nil
	}
	return nil, fmt.Errorf("sqlengine: subquery reads table %q, which has no input", name)
}

// subqueryIter closes the subquery inputs no subquery drained when the
// pipeline closes.
type subqueryIter struct {
	RowIter
	subs *subqueryInputs
}

func (it *subqueryIter) Close() error {
	err := it.RowIter.Close()
	for i := range it.subs.inputs {
		if in := &it.subs.inputs[i]; in.Iter != nil {
			if cerr := in.Iter.Close(); err == nil {
				err = cerr
			}
			in.Iter = nil
		}
	}
	return err
}

// check returns the statement errors the engine reports before reading a
// row: an unresolvable select list, then a UNION branch whose width
// differs from the rest of its chain (the innermost pair first, as the
// engine's recursion met them).
func (p *StreamPlan) check() error {
	for _, br := range p.Branches {
		if br.err != nil {
			return br.err
		}
	}
	for i := len(p.Branches) - 2; i >= 0; i-- {
		if a, b := len(p.Branches[i].OutCols), len(p.Branches[i+1].OutCols); a != b {
			return fmt.Errorf("sqlengine: UNION column count mismatch: %d vs %d", a, b)
		}
	}
	return nil
}

// composeBranch builds one branch's pipeline:
// inputs → joins → filter → project|aggregate → distinct → sort →
// offset/limit.
func composeBranch(ctx context.Context, br *StreamBranch, ins []StreamInput, env *evalEnv, opts StreamOptions) RowIter {
	sel := br.Sel
	var rel relIter
	if len(ins) == 0 {
		rel = &srcIter{in: SliceIter(&ResultSet{Rows: []Row{{}}}), cols: []string{}}
	} else {
		rel = &srcIter{in: ins[0].Iter, q: ins[0].Source.Qualifier, cols: ins[0].Columns}
	}
	for i, j := range br.Joins {
		right := &srcIter{in: ins[i+1].Iter, q: ins[i+1].Source.Qualifier, cols: ins[i+1].Columns}
		rel = newHashJoinIter(ctx, j, rel, right, env, opts)
	}
	if sel.Where != nil {
		rel = &filterIter{in: rel, cond: sel.Where, env: env}
	}
	var out RowIter
	if br.aggregated {
		out = &aggIter{ctx: ctx, in: rel, sel: sel, cols: br.OutCols, exprs: br.exprs, env: env}
	} else {
		out = &projectIter{in: rel, cols: br.OutCols, exprs: br.exprs, env: env}
	}
	if sel.Distinct {
		out = &distinctIter{in: out}
	}
	if len(sel.OrderBy) > 0 {
		width := 0
		if len(br.exprs) > len(br.OutCols) {
			width = len(br.OutCols)
		}
		out = newSortIter(ctx, out, br.orderKeys, width, br.orderErr, opts)
	}
	if sel.Offset > 0 || sel.Limit >= 0 {
		out = &offsetLimitIter{in: out, offset: sel.Offset, limit: sel.Limit}
	}
	return out
}

// ---- relation iterators (rows + qualified schema) ----

// relIter is the internal contract between relational operators: like
// RowIter but with a qualified schema for expression binding. schema()
// may block to prepare the operator (a hash join drains its build side
// there) and is called before the first next().
type relIter interface {
	schema() (rowSchema, error)
	next() (Row, error)
	close() error
}

// srcIter adapts one table input. The schema binds the input's columns
// under the table's qualifier; when Columns were not statically known,
// binding reads them from the iterator (opening lazy producers) and
// normalizes them. A lazy producer that reports no columns until its
// first row (a relay cursor that failed to open, say) is probed with one
// Next so its real error — not a misleading "unknown column" from an
// empty schema — aborts the bind; a successfully probed row is replayed
// by the first next().
type srcIter struct {
	in      RowIter
	q       string
	cols    []string
	sch     rowSchema
	bound   bool
	pending Row
	havePen bool
}

func (s *srcIter) schema() (rowSchema, error) {
	if !s.bound {
		cols, read := s.cols, s.cols == nil
		if read {
			cols = s.in.Columns()
			if len(cols) == 0 {
				row, err := s.in.Next()
				if err != nil && err != io.EOF {
					return nil, err
				}
				if err == nil {
					s.pending, s.havePen = row, true
				}
				cols = s.in.Columns()
			}
		}
		s.sch = make(rowSchema, len(cols))
		for i, c := range cols {
			if read {
				c = normalizeName(c)
			}
			s.sch[i] = colBinding{qualifier: s.q, name: c}
		}
		s.bound = true
	}
	return s.sch, nil
}

func (s *srcIter) next() (Row, error) {
	if s.havePen {
		row := s.pending
		s.pending, s.havePen = nil, false
		return row, nil
	}
	return s.in.Next()
}

func (s *srcIter) close() error { return s.in.Close() }

// filterIter applies a WHERE condition with the engine's ROWNUM
// semantics: the pseudo-column numbers candidate rows as they pass.
type filterIter struct {
	in   relIter
	cond Expr
	env  *evalEnv
	fr   *frame
	test evalFn // cond, compiled at the first next
	kept int64
}

func (f *filterIter) schema() (rowSchema, error) { return f.in.schema() }

func (f *filterIter) next() (Row, error) {
	if f.test == nil {
		sch, err := f.in.schema()
		if err != nil {
			return nil, err
		}
		var fns []evalFn
		f.fr, fns = f.env.compile(sch, true, f.cond)
		f.test = fns[0]
	}
	for {
		row, err := f.in.next()
		if err != nil {
			return nil, err
		}
		f.fr.row, f.fr.rownum = row, f.kept+1
		v, err := f.test(f.fr)
		if err != nil {
			return nil, err
		}
		if decides(v, true) {
			f.kept++
			return row, nil
		}
	}
}

func (f *filterIter) close() error { return f.in.close() }

// projectIter evaluates the SELECT list (and any hidden ORDER BY keys
// after it), turning the qualified relation into output rows.
type projectIter struct {
	in    relIter
	cols  []string
	exprs []Expr
	env   *evalEnv
	fr    *frame
	fns   []evalFn // exprs, compiled at the first Next
}

func (p *projectIter) Columns() []string { return p.cols }

func (p *projectIter) Next() (Row, error) {
	if p.fns == nil {
		sch, err := p.in.schema()
		if err != nil {
			return nil, err
		}
		p.fr, p.fns = p.env.compile(sch, false, p.exprs...)
	}
	row, err := p.in.next()
	if err != nil {
		return nil, err
	}
	p.fr.row = row
	out := make(Row, len(p.fns))
	for i, fn := range p.fns {
		v, err := fn(p.fr)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectIter) Close() error { return p.in.close() }

// distinctIter streams rows, dropping those whose encoded key was seen.
// Memory is bounded by the number of distinct output rows.
type distinctIter struct {
	in   RowIter
	seen map[string]struct{}
	key  []byte
}

func (d *distinctIter) Columns() []string { return d.in.Columns() }

func (d *distinctIter) Next() (Row, error) {
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	for {
		row, err := d.in.Next()
		if err != nil {
			return nil, err
		}
		d.key = appendIndexKey(d.key[:0], row...)
		if _, dup := d.seen[string(d.key)]; !dup {
			d.seen[string(d.key)] = struct{}{}
			return row, nil
		}
	}
}

func (d *distinctIter) Close() error { return d.in.Close() }

// offsetLimitIter applies OFFSET/LIMIT (limit < 0 means none).
type offsetLimitIter struct {
	in      RowIter
	offset  int64
	limit   int64
	skipped int64
	emitted int64
}

func (o *offsetLimitIter) Columns() []string { return o.in.Columns() }

func (o *offsetLimitIter) Next() (Row, error) {
	if o.limit >= 0 && o.emitted >= o.limit {
		return nil, io.EOF
	}
	for o.skipped < o.offset {
		if _, err := o.in.Next(); err != nil {
			return nil, err
		}
		o.skipped++
	}
	row, err := o.in.Next()
	if err != nil {
		return nil, err
	}
	o.emitted++
	return row, nil
}

func (o *offsetLimitIter) Close() error { return o.in.Close() }

// unionIter concatenates two streams (UNION ALL shape; plain UNION wraps
// the concatenation in a distinctIter).
type unionIter struct {
	cols  []string
	a, b  RowIter
	aDone bool
}

func (u *unionIter) Columns() []string { return u.cols }

func (u *unionIter) Next() (Row, error) {
	if !u.aDone {
		row, err := u.a.Next()
		if err == nil {
			return row, nil
		}
		if err != io.EOF {
			return nil, err
		}
		u.aDone = true
	}
	return u.b.Next()
}

func (u *unionIter) Close() error {
	err := u.a.Close()
	if err2 := u.b.Close(); err == nil {
		err = err2
	}
	return err
}

// ---- helpers shared by the join/sort/aggregate operators ----

const (
	valueMemBytes    = int64(unsafe.Sizeof(Value{}))
	sliceHdrMemBytes = int64(unsafe.Sizeof([]Value(nil)))
)

// RowBytes estimates the live-heap footprint of one row: its slice header,
// its Values and their string and bytes payloads. It is the unit the
// operator byte budgets, the query cache and the session quotas count in.
func RowBytes(row Row) int64 {
	n := sliceHdrMemBytes + int64(len(row))*valueMemBytes
	for _, v := range row {
		n += int64(len(v.Str()))
	}
	return n
}

// ctxErr reports ctx's error without blocking; buffering operators poll
// it once per row.
func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func resolveKeys(sch rowSchema, quals, keys []string) ([]int, error) {
	idx := make([]int, len(keys))
	for i, k := range keys {
		j, n := sch.find(quals[i], k)
		if n != 1 {
			// Unqualified fallback: a relay input's columns are only
			// known once it is read.
			var n2 int
			if j, n2 = sch.find("", k); n2 != 1 {
				return nil, nameError(quals[i], k, n)
			}
		}
		idx[i] = j
	}
	return idx, nil
}
