package sqlengine

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
)

// This file is the materializing executor that ran every SELECT before
// the operator pipeline became the engine's one executor, kept verbatim
// as the differential oracle (refQuery). Only names that would collide
// with production changed: executor → refExecutor, relation →
// refRelation, group → refGroup; expandItems and exprName are the
// production helpers it always shared with the operators. Its IN/EXISTS
// subqueries re-enter the oracle, not the engine. It groups, deduplicates
// and matches join keys with Compare, never with the engine's hash keys
// (appendIndexKey), so a fault of the key codec shows as a disagreement.

// refQuery parses and runs one SELECT on the oracle.
func refQuery(e *Engine, sql string, params ...Value) (*ResultSet, error) {
	st, err := NewParser(e.dialect).ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("refQuery: not a SELECT: %T", st)
	}
	return (&refExecutor{db: e.db}).execSelect(sel, params, nil)
}

// refRelation is an intermediate table during query execution.
type refRelation struct {
	schema rowSchema
	rows   []Row
}

// refExecutor runs SELECT statements against a database's published
// catalog; its callers run no write beside it.
type refExecutor struct {
	db *Database
	// depth guards against runaway view recursion.
	depth int
}

// execSelect runs a SELECT and returns a materialized result. outer, when
// non-nil, provides the enclosing row context for correlated subqueries.
func (ex *refExecutor) execSelect(sel *SelectStmt, params []Value, outer *evalContext) (*ResultSet, error) {
	if ex.depth > maxViewDepth {
		return nil, fmt.Errorf("sqlengine: view or subquery nesting exceeds %d", maxViewDepth)
	}
	rel, err := ex.buildFrom(sel, params, outer)
	if err != nil {
		return nil, err
	}
	// WHERE (with Oracle ROWNUM pseudo-column semantics: the row number is
	// assigned as candidate rows pass the filter).
	if sel.Where != nil {
		kept := rel.rows[:0:0]
		for _, row := range rel.rows {
			ec := &evalContext{schema: rel.schema, row: row, params: params, exec: ex.execSelect, rownum: int64(len(kept)) + 1, outer: outer}
			v, err := evalExpr(sel.Where, ec)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); ok && !v.IsNull() && b {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
	}

	aggregated := len(sel.GroupBy) > 0 || sel.Having != nil
	if !aggregated {
		for _, it := range sel.Items {
			if it.Expr != nil && ContainsAggregate(it.Expr) {
				aggregated = true
				break
			}
		}
	}

	var out *ResultSet
	var sortEnvs []Row // source row (or group representative) per output row
	if aggregated {
		out, sortEnvs, err = ex.execAggregate(sel, rel, params, outer)
	} else {
		out, sortEnvs, err = ex.project(sel, rel, params, outer)
	}
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		out.Rows = dedupeRows(out.Rows)
		sortEnvs = nil // source correspondence lost; order by output only
	}

	if len(sel.OrderBy) > 0 {
		if err := ex.orderBy(sel, rel.schema, out, sortEnvs, params, outer, aggregated); err != nil {
			return nil, err
		}
	}

	// OFFSET / LIMIT.
	if sel.Offset > 0 {
		if sel.Offset >= int64(len(out.Rows)) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[sel.Offset:]
		}
	}
	if sel.Limit >= 0 && int64(len(out.Rows)) > sel.Limit {
		out.Rows = out.Rows[:sel.Limit]
	}

	if sel.Union != nil {
		sub, err := ex.execSelect(sel.Union, params, outer)
		if err != nil {
			return nil, err
		}
		if len(sub.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("sqlengine: UNION column count mismatch: %d vs %d", len(out.Columns), len(sub.Columns))
		}
		out.Rows = append(out.Rows, sub.Rows...)
		if !sel.UnionAll {
			out.Rows = dedupeRows(out.Rows)
		}
	}
	return out, nil
}

// buildFrom materializes the FROM clause (tables, views, joins) into one
// working relation.
func (ex *refExecutor) buildFrom(sel *SelectStmt, params []Value, outer *evalContext) (*refRelation, error) {
	if len(sel.From) == 0 {
		// SELECT without FROM: one empty row (Oracle's DUAL behaviour).
		return &refRelation{schema: rowSchema{}, rows: []Row{{}}}, nil
	}
	rel, err := ex.scan(sel.From[0], params, outer)
	if err != nil {
		return nil, err
	}
	for _, jc := range sel.Joins {
		right, err := ex.scan(jc.Table, params, outer)
		if err != nil {
			return nil, err
		}
		rel, err = ex.join(rel, right, jc.Kind, jc.On, params, outer)
		if err != nil {
			return nil, err
		}
	}
	// Comma-joined tables: cross join; equi-predicates in WHERE are pushed
	// into a hash join where possible by join() receiving the WHERE clause.
	for _, tr := range sel.From[1:] {
		right, err := ex.scan(tr, params, outer)
		if err != nil {
			return nil, err
		}
		rel, err = ex.join(rel, right, JoinCross, sel.Where, params, outer)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// scan materializes one table or view reference.
func (ex *refExecutor) scan(tr TableRef, params []Value, outer *evalContext) (*refRelation, error) {
	qual := tr.Alias
	if qual == "" {
		qual = tr.Name
	}
	cat := ex.db.pin()
	if t, ok := cat.tables[tr.Name]; ok {
		schema := make(rowSchema, len(t.Columns))
		for i, c := range t.Columns {
			schema[i] = colBinding{qualifier: qual, name: c.Name}
		}
		// Rows are shared (not copied): SELECT never mutates rows in place.
		return &refRelation{schema: schema, rows: t.Rows}, nil
	}
	if v, ok := cat.views[tr.Name]; ok {
		sub := &refExecutor{db: ex.db, depth: ex.depth + 1}
		rs, err := sub.execSelect(v.Stmt, params, outer)
		if err != nil {
			return nil, fmt.Errorf("sqlengine: view %q: %w", v.Name, err)
		}
		schema := make(rowSchema, len(rs.Columns))
		for i, c := range rs.Columns {
			schema[i] = colBinding{qualifier: qual, name: c}
		}
		return &refRelation{schema: schema, rows: rs.Rows}, nil
	}
	return nil, fmt.Errorf("sqlengine: %s: no such table or view %q", ex.db.name, tr.Name)
}

// equiPair is one left-col = right-col join predicate.
type equiPair struct{ li, ri int }

// findEquiPairs extracts equality predicates in cond that connect the left
// and right schemas (conjunctive top level only).
func findEquiPairs(cond Expr, left, right rowSchema) []equiPair {
	var pairs []equiPair
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
			lref, lok := be.L.(*ColumnRef)
			rref, rok := be.R.(*ColumnRef)
			if !lok || !rok {
				return
			}
			li, lerr := left.lookup(lref.Table, lref.Column)
			ri, rerr := right.lookup(rref.Table, rref.Column)
			if lerr == nil && rerr == nil {
				pairs = append(pairs, equiPair{li, ri})
				return
			}
			// Try the swapped orientation.
			li, lerr = left.lookup(rref.Table, rref.Column)
			ri, rerr = right.lookup(lref.Table, lref.Column)
			if lerr == nil && rerr == nil {
				pairs = append(pairs, equiPair{li, ri})
			}
		}
	}
	walk(cond)
	return pairs
}

// join combines two relations in a nested loop. Detectable
// equi-predicates are matched first, and only then the full condition.
// For JoinCross with a WHERE clause supplied, equi-predicates are used to
// avoid materializing the full product; the WHERE clause itself is still
// applied later by the caller.
func (ex *refExecutor) join(left, right *refRelation, kind JoinKind, cond Expr, params []Value, outer *evalContext) (*refRelation, error) {
	if kind == JoinRight {
		// RIGHT JOIN b ON cond == b LEFT JOIN a ON cond with columns in
		// original order; build via swapped hash join then reorder is
		// complex, so do it directly: swap sides, join, then remap schema.
		swapped, err := ex.join(right, left, JoinLeft, cond, params, outer)
		if err != nil {
			return nil, err
		}
		nl, nr := len(left.schema), len(right.schema)
		schema := make(rowSchema, 0, nl+nr)
		schema = append(schema, left.schema...)
		schema = append(schema, right.schema...)
		rows := make([]Row, len(swapped.rows))
		for i, row := range swapped.rows {
			out := make(Row, 0, nl+nr)
			out = append(out, row[nr:]...)
			out = append(out, row[:nr]...)
			rows[i] = out
		}
		return &refRelation{schema: schema, rows: rows}, nil
	}

	schema := make(rowSchema, 0, len(left.schema)+len(right.schema))
	schema = append(schema, left.schema...)
	schema = append(schema, right.schema...)

	var pairs []equiPair
	if cond != nil {
		pairs = findEquiPairs(cond, left.schema, right.schema)
	}

	var rows []Row
	residual := func(row Row) (bool, error) {
		// For INNER/LEFT joins the full ON condition must hold (keysMatch
		// only checks the equi-part). Cross joins defer cond (the
		// WHERE clause) to the caller.
		if cond == nil || kind == JoinCross {
			return true, nil
		}
		ec := &evalContext{schema: schema, row: row, params: params, exec: ex.execSelect, outer: outer}
		v, err := evalExpr(cond, ec)
		if err != nil {
			return false, err
		}
		b, ok := v.AsBool()
		return ok && !v.IsNull() && b, nil
	}

	// A row pair joins when Compare equates every equi pair, neither side
	// NULL, and the residual holds; the residual is evaluated only for
	// pairs whose keys match. Comparing with Compare, not the engine's hash
	// keys, keeps a key codec fault visible.
	keysMatch := func(lrow, rrow Row) bool {
		for _, p := range pairs {
			l, r := lrow[p.li], rrow[p.ri]
			if l.IsNull() || r.IsNull() || Compare(l, r) != 0 {
				return false
			}
		}
		return true
	}
	for _, lrow := range left.rows {
		matched := false
		for _, rrow := range right.rows {
			if !keysMatch(lrow, rrow) {
				continue
			}
			combined := make(Row, 0, len(schema))
			combined = append(combined, lrow...)
			combined = append(combined, rrow...)
			ok, err := residual(combined)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, combined)
				matched = true
			}
		}
		if kind == JoinLeft && !matched {
			combined := make(Row, len(schema))
			copy(combined, lrow)
			rows = append(rows, combined) // right side stays NULL
		}
	}
	return &refRelation{schema: schema, rows: rows}, nil
}

// project evaluates the SELECT list for a non-aggregate query. It returns
// the result set plus, per output row, the source row used (for ORDER BY on
// non-projected columns).
func (ex *refExecutor) project(sel *SelectStmt, rel *refRelation, params []Value, outer *evalContext) (*ResultSet, []Row, error) {
	cols, exprs, err := expandItems(sel.Items, rel.schema)
	if err != nil {
		return nil, nil, err
	}
	out := &ResultSet{Columns: cols}
	envs := make([]Row, 0, len(rel.rows))
	for _, row := range rel.rows {
		ec := &evalContext{schema: rel.schema, row: row, params: params, exec: ex.execSelect, outer: outer}
		orow := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := evalExpr(e, ec)
			if err != nil {
				return nil, nil, err
			}
			orow[i] = v
		}
		out.Rows = append(out.Rows, orow)
		envs = append(envs, row)
	}
	return out, envs, nil
}

// dedupeRows keeps the first of the rows Compare equates value by value.
func dedupeRows(rows []Row) []Row {
	out := rows[:0:0]
	for _, r := range rows {
		if !slices.ContainsFunc(out, func(o Row) bool { return equalValues(o, r) }) {
			out = append(out, r)
		}
	}
	return out
}

// equalValues reports whether Compare equates a and b value by value.
func equalValues(a, b []Value) bool {
	return slices.EqualFunc(a, b, func(x, y Value) bool { return Compare(x, y) == 0 })
}

// orderBy sorts out.Rows in place. Sort keys may be: an integer ordinal, an
// output alias/column, or an arbitrary expression over the source relation.
func (ex *refExecutor) orderBy(sel *SelectStmt, schema rowSchema, out *ResultSet, envs []Row, params []Value, outer *evalContext, aggregated bool) error {
	type keyed struct {
		row  Row
		keys []Value
	}
	items := sel.OrderBy
	keyedRows := make([]keyed, len(out.Rows))
	outIdx := func(e Expr) int {
		// ordinal
		if lit, ok := e.(*Literal); ok && lit.Val.Kind == KindInt {
			n := int(lit.Val.Int)
			if n >= 1 && n <= len(out.Columns) {
				return n - 1
			}
			return -2 // bad ordinal
		}
		if cr, ok := e.(*ColumnRef); ok {
			// Match by output alias/name. A qualified reference (t.col)
			// matches when exactly one output column carries that name.
			found := -1
			for i, c := range out.Columns {
				if c == cr.Column {
					if found >= 0 {
						found = -1
						break
					}
					found = i
				}
			}
			if found >= 0 {
				return found
			}
		}
		return -1
	}
	for ri, row := range out.Rows {
		keys := make([]Value, len(items))
		for ki, it := range items {
			idx := outIdx(it.Expr)
			switch {
			case idx == -2:
				return fmt.Errorf("sqlengine: ORDER BY ordinal out of range")
			case idx >= 0:
				keys[ki] = row[idx]
			default:
				if envs == nil || ri >= len(envs) || aggregated {
					return fmt.Errorf("sqlengine: ORDER BY expression must reference an output column in this query")
				}
				ec := &evalContext{schema: schema, row: envs[ri], params: params, exec: ex.execSelect, outer: outer}
				v, err := evalExpr(it.Expr, ec)
				if err != nil {
					return err
				}
				keys[ki] = v
			}
		}
		keyedRows[ri] = keyed{row: row, keys: keys}
	}
	sort.SliceStable(keyedRows, func(i, j int) bool {
		for ki, it := range items {
			c := Compare(keyedRows[i].keys[ki], keyedRows[j].keys[ki])
			if c == 0 {
				continue
			}
			if it.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i := range keyedRows {
		out.Rows[i] = keyedRows[i].row
	}
	return nil
}

// ---- Aggregation ----

type refGroup struct {
	keyVals []Value
	rows    []Row
}

// execAggregate handles GROUP BY / aggregate-function queries.
func (ex *refExecutor) execAggregate(sel *SelectStmt, rel *refRelation, params []Value, outer *evalContext) (*ResultSet, []Row, error) {
	// Partition rows into groups.
	var groups []*refGroup
	if len(sel.GroupBy) == 0 {
		groups = []*refGroup{{rows: rel.rows}}
	} else {
		for _, row := range rel.rows {
			ec := &evalContext{schema: rel.schema, row: row, params: params, exec: ex.execSelect, outer: outer}
			keyVals := make([]Value, len(sel.GroupBy))
			for i, ge := range sel.GroupBy {
				v, err := evalExpr(ge, ec)
				if err != nil {
					return nil, nil, err
				}
				keyVals[i] = v
			}
			i := slices.IndexFunc(groups, func(g *refGroup) bool { return equalValues(g.keyVals, keyVals) })
			if i < 0 {
				i = len(groups)
				groups = append(groups, &refGroup{keyVals: keyVals})
			}
			groups[i].rows = append(groups[i].rows, row)
		}
	}

	cols, exprs, err := expandItems(sel.Items, rel.schema)
	if err != nil {
		return nil, nil, err
	}
	out := &ResultSet{Columns: cols}
	var envs []Row
	for _, g := range groups {
		if len(g.rows) == 0 && len(sel.GroupBy) > 0 {
			continue
		}
		if sel.Having != nil {
			v, err := ex.evalAggExpr(sel.Having, g, rel.schema, params, outer)
			if err != nil {
				return nil, nil, err
			}
			if b, ok := v.AsBool(); !ok || v.IsNull() || !b {
				continue
			}
		}
		orow := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := ex.evalAggExpr(e, g, rel.schema, params, outer)
			if err != nil {
				return nil, nil, err
			}
			orow[i] = v
		}
		out.Rows = append(out.Rows, orow)
		if len(g.rows) > 0 {
			envs = append(envs, g.rows[0])
		} else {
			envs = append(envs, make(Row, len(rel.schema)))
		}
	}
	return out, envs, nil
}

// evalAggExpr evaluates an expression that may contain aggregate calls over
// the rows of one group. Non-aggregate column references resolve against
// the group's first row (they should be group-by keys; we do not verify,
// matching MySQL's permissive behaviour).
func (ex *refExecutor) evalAggExpr(e Expr, g *refGroup, schema rowSchema, params []Value, outer *evalContext) (Value, error) {
	switch x := e.(type) {
	case *FuncCall:
		if isAggregate(x.Name) {
			return ex.computeAggregate(x, g, schema, params, outer)
		}
	case *BinaryExpr:
		l, err := ex.evalAggExpr(x.L, g, schema, params, outer)
		if err != nil {
			return Null(), err
		}
		r, err := ex.evalAggExpr(x.R, g, schema, params, outer)
		if err != nil {
			return Null(), err
		}
		return evalBinary(&BinaryExpr{Op: x.Op, L: &Literal{Val: l}, R: &Literal{Val: r}}, &evalContext{})
	case *UnaryExpr:
		v, err := ex.evalAggExpr(x.X, g, schema, params, outer)
		if err != nil {
			return Null(), err
		}
		return evalExpr(&UnaryExpr{Op: x.Op, X: &Literal{Val: v}}, &evalContext{})
	}
	var env Row
	if len(g.rows) > 0 {
		env = g.rows[0]
	} else {
		env = make(Row, len(schema))
	}
	ec := &evalContext{schema: schema, row: env, params: params, exec: ex.execSelect, outer: outer}
	return evalExpr(e, ec)
}

func (ex *refExecutor) computeAggregate(fc *FuncCall, g *refGroup, schema rowSchema, params []Value, outer *evalContext) (Value, error) {
	// COUNT(*)
	if fc.Star {
		if fc.Name != "COUNT" {
			return Null(), fmt.Errorf("sqlengine: %s(*) is not valid", fc.Name)
		}
		return NewInt(int64(len(g.rows))), nil
	}
	if len(fc.Args) != 1 {
		return Null(), fmt.Errorf("sqlengine: aggregate %s expects one argument", fc.Name)
	}
	var vals []Value
	for _, row := range g.rows {
		ec := &evalContext{schema: schema, row: row, params: params, exec: ex.execSelect, outer: outer}
		v, err := evalExpr(fc.Args[0], ec)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct && slices.ContainsFunc(vals, func(x Value) bool { return Compare(x, v) == 0 }) {
			continue
		}
		vals = append(vals, v)
	}
	switch fc.Name {
	case "COUNT":
		return NewInt(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		allInt := true
		var fsum float64
		isum := new(big.Int)
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("sqlengine: %s over non-numeric value", fc.Name)
			}
			fsum += f
			if v.Kind == KindInt {
				isum.Add(isum, big.NewInt(v.Int))
			} else {
				allInt = false
			}
		}
		switch {
		case fc.Name == "AVG" && allInt:
			// The DOUBLE nearest the exact mean.
			f, _ := new(big.Rat).SetFrac(isum, big.NewInt(int64(len(vals)))).Float64()
			return NewFloat(f), nil
		case fc.Name == "AVG":
			return NewFloat(fsum / float64(len(vals))), nil
		case !allInt:
			return NewFloat(fsum), nil
		case !isum.IsInt64():
			// An exact integer sum outside int64 fails (MySQL's BIGINT rule).
			return Null(), fmt.Errorf("sqlengine: SUM out of range: %s", isum)
		}
		return NewInt(isum.Int64()), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (fc.Name == "MIN" && c < 0) || (fc.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Null(), fmt.Errorf("sqlengine: unknown aggregate %s", fc.Name)
}
