package sqlengine

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// ResultSet is a fully materialized query result: the paper's "2-D vector".
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// executor runs SELECT statements against one catalog of a database,
// the one pinned when the statement started, or, for a StreamSelect's
// subqueries, against the tables the caller supplied. ctx is the
// statement's: its table reads stop when it ends.
type executor struct {
	ctx  context.Context
	cat  *catalog
	subs *subqueryInputs // set instead of cat
	// depth guards against runaway view recursion.
	depth int
}

const maxViewDepth = 16

// openSelect composes a SELECT's operator pipeline and returns it
// unstarted: no row is read until the caller pulls one. env holds the
// statement's parameters and, for a subquery, the row it runs for.
//
// It runs on the operator pipeline the federation uses (operators.go),
// over the tables open resolves: the same analysis, with every input's
// columns known, so no shape is rejected. Joins build their right input
// (the left one of a RIGHT JOIN) and nothing spills, which keeps the row
// order and memory of the materializing executor this replaced
// (refexec_test.go, the differential oracle).
func (ex *executor) openSelect(sel *SelectStmt, env *evalEnv) (RowIter, error) {
	if ex.depth > maxViewDepth {
		return nil, fmt.Errorf("sqlengine: view or subquery nesting exceeds %d", maxViewDepth)
	}
	cols := map[string][]string{}
	var inputs []StreamInput
	for s := sel; s != nil; s = s.Union {
		refs := BranchTables(s)
		var where Expr
		if len(refs) == 1 {
			where = s.Where
		}
		for _, tr := range refs {
			in, err := ex.open(tr, where, env)
			if err != nil {
				return nil, err
			}
			cols[in.Source.Table] = in.Columns
			inputs = append(inputs, in)
		}
	}
	plan, reason := analyzeSelect(sel, func(table string) []string { return cols[table] })
	if plan == nil {
		return nil, fmt.Errorf("sqlengine: cannot run SELECT: %s", reason)
	}
	env = &evalEnv{params: env.params, exec: ex.execSelect, outer: env.outer, outerScope: env.outerScope}
	return streamSelect(ex.ctx, plan, inputs, env, StreamOptions{BudgetBytes: -1})
}

// execSelect runs a SELECT to its end: a view, an IN or EXISTS subquery,
// the source of an INSERT … SELECT, or a statement of Session.RunStmt.
func (ex *executor) execSelect(sel *SelectStmt, env *evalEnv) (*ResultSet, error) {
	it, err := ex.openSelect(sel, env)
	if err != nil {
		return nil, err
	}
	return Drain(it)
}

// open resolves one FROM reference to its input; it is the one place a
// SELECT reads a table. A database table is read in place, as the
// pipeline pulls — its rows are shared, not copied: the executor's
// catalog never changes, nor does a stored row (setRows). where, the
// WHERE of a branch with no other input, picks the access path
// (access.go): the rows a hash index finds, a key
// range of a table stored in primary-key order, or every row. The filter
// still runs over what open returns, so a path returns a superset of the
// matching rows, in table order, skipping no row the WHERE would have
// raised an error on. A view is its own SELECT, run to completion. A
// subquery table of a StreamSelect is the caller's input, drained once
// and shared by every later open.
func (ex *executor) open(tr TableRef, where Expr, env *evalEnv) (StreamInput, error) {
	src := sourceOf(tr)
	if ex.subs != nil {
		rs, err := ex.subs.table(src.Table)
		if err != nil {
			return StreamInput{}, err
		}
		return StreamInput{Source: src, Columns: rs.Columns, Iter: SliceIter(rs)}, nil
	}
	if t, ok := ex.cat.tables[tr.Name]; ok {
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = c.Name
		}
		rows, path := t.accessRows(src.Qualifier, where, env.params)
		if hook := ex.cat.db.pathHook; hook != nil {
			hook(t.Name, path)
		}
		it := &tableIter{ctx: ex.ctx, cols: cols, rows: rows, table: t.Name, hook: ex.cat.db.ScanHook}
		return StreamInput{Source: src, Columns: cols, Iter: it}, nil
	}
	if v, ok := ex.cat.views[tr.Name]; ok {
		sub := &executor{ctx: ex.ctx, cat: ex.cat, depth: ex.depth + 1}
		rs, err := sub.execSelect(v.Stmt, env)
		if err != nil {
			return StreamInput{}, fmt.Errorf("sqlengine: view %q: %w", v.Name, err)
		}
		cols := rs.Columns
		if cols == nil {
			cols = []string{} // known, and empty: a star over no FROM
		}
		return StreamInput{Source: src, Columns: cols, Iter: SliceIter(rs)}, nil
	}
	return StreamInput{}, fmt.Errorf("sqlengine: %s: no such table or view %q", ex.cat.db.name, tr.Name)
}

// tableIter hands on the rows an access path found in one table version.
// It polls the statement's context every tablePoll rows, so a cancelled
// statement stops reading, and reports each row to the database's
// ScanHook.
type tableIter struct {
	ctx   context.Context
	cols  []string
	rows  []Row
	pos   int
	table string
	hook  func(table string)
}

const tablePoll = 64

func (it *tableIter) Columns() []string { return it.cols }

func (it *tableIter) Next() (Row, error) {
	if it.pos%tablePoll == 0 {
		if err := it.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if it.pos >= len(it.rows) {
		return nil, io.EOF
	}
	row := it.rows[it.pos]
	it.pos++
	if it.hook != nil {
		it.hook(it.table)
	}
	return row, nil
}

func (it *tableIter) Close() error { return nil }

// expandItems resolves stars and names output columns.
func expandItems(items []SelectItem, schema rowSchema) ([]string, []Expr, error) {
	var cols []string
	var exprs []Expr
	for _, it := range items {
		if it.Star {
			for _, b := range schema {
				if it.StarTable != "" && b.qualifier != it.StarTable {
					continue
				}
				cols = append(cols, b.name)
				exprs = append(exprs, &ColumnRef{Table: b.qualifier, Column: b.name})
			}
			if it.StarTable != "" && len(exprs) == 0 {
				return nil, nil, fmt.Errorf("sqlengine: unknown table %q in %s.*", it.StarTable, it.StarTable)
			}
			continue
		}
		name := it.Alias
		if name == "" {
			name = exprName(it.Expr)
		}
		cols = append(cols, name)
		exprs = append(exprs, it.Expr)
	}
	return cols, exprs, nil
}

// exprName derives a column name for an unaliased projection.
func exprName(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Column
	case *FuncCall:
		if x.Star {
			return strings.ToLower(x.Name) + "(*)"
		}
		return strings.ToLower(x.Name)
	case *Literal:
		return x.Val.String()
	}
	return "expr"
}
