package unity

import (
	"context"
	"fmt"
	"strings"

	"gridrdb/internal/sqlengine"
)

// QuerySource runs raw SQL on one member database (used by the schema
// tracker to introspect live sources and by diagnostics).
func (f *Federation) QuerySource(name, sqlText string) (*sqlengine.ResultSet, error) {
	return f.runOnSourceCtx(context.Background(), name, sqlText)
}

// runOnSourceCtx is QuerySource under a caller's context: the drained
// runOnSourceStreamCtx cursor.
func (f *Federation) runOnSourceCtx(ctx context.Context, source, sqlText string) (*sqlengine.ResultSet, error) {
	it, err := f.runOnSourceStreamCtx(ctx, source, sqlText, nil)
	if err != nil {
		return nil, err
	}
	return sqlengine.Drain(it)
}

// SourceDialectName returns the vendor dialect of a source.
func (f *Federation) SourceDialectName(name string) (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sources[name]
	if !ok {
		return "", fmt.Errorf("unity: no source %q", name)
	}
	return s.Spec.Dialect, nil
}

// SourceDriver returns the registered driver name of a source.
func (f *Federation) SourceDriver(name string) (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sources[name]
	if !ok {
		return "", fmt.Errorf("unity: no source %q", name)
	}
	return s.Driver, nil
}

// SourceURL returns the DSN of a source.
func (f *Federation) SourceURL(name string) (string, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sources[name]
	if !ok {
		return "", fmt.Errorf("unity: no source %q", name)
	}
	return s.URL, nil
}

// RALParts describes a query in the POOL-RAL call shape: a field list,
// table list and WHERE string, all in the physical names and dialect of
// one source database.
type RALParts struct {
	Source string
	Fields []string
	Tables []string
	Where  string
}

// ExtractRALParts plans sqlText and derives its POOL-RAL call shape (see
// RALPartsFor). The bool result reports fitness; unknown-table errors
// from planning propagate. Callers that already hold the plan use
// RALPartsFor directly and skip the second parse.
func (f *Federation) ExtractRALParts(sqlText string) (*RALParts, bool, error) {
	plan, err := f.PlanQuery(sqlText)
	if err != nil {
		return nil, false, err
	}
	parts, ok := f.RALPartsFor(plan)
	return parts, ok, nil
}

// RALPartsFor decides whether a planned query fits the POOL-RAL interface
// (single database, plain column projection, optional WHERE; no joins
// across databases, aggregates, grouping, ordering, limits or parameters)
// and if so returns the pieces for the RAL's select call, derived from the statement
// and source the plan retained.
func (f *Federation) RALPartsFor(plan *Plan) (*RALParts, bool) {
	sel := plan.sel
	if !plan.Pushdown || sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil ||
		len(sel.OrderBy) > 0 || sel.Limit >= 0 || sel.Offset > 0 ||
		sel.Union != nil || len(sel.Joins) > 0 || len(sel.From) != 1 {
		return nil, false
	}
	src := plan.pushSource
	d := f.dialectOf(src)
	var uses []tableUse
	collectTables(sel, &uses)
	m := f.mapperFor(src, plan.Tables, uses)

	parts := &RALParts{Source: src}
	parts.Tables = []string{m.physTable(sel.From[0].Name)}
	for _, it := range sel.Items {
		switch {
		case it.Star && it.StarTable == "":
			parts.Fields = append(parts.Fields, "*")
		case it.Star:
			return nil, false
		default:
			cr, ok := it.Expr.(*sqlengine.ColumnRef)
			if !ok || it.Alias != "" {
				return nil, false
			}
			parts.Fields = append(parts.Fields, m.physColumn(cr.Table, cr.Column))
		}
	}
	if sel.Where != nil {
		if hasParam(sel.Where) {
			return nil, false
		}
		r := &renderer{d: d, m: m}
		// The RAL call names the table without an alias, so qualified
		// references are rewritten to bare columns (unambiguous: the
		// query addresses exactly one table).
		where, err := r.expr(stripQualifiers(sel.Where))
		if err != nil {
			return nil, false
		}
		parts.Where = where
	}
	return parts, true
}

// stripQualifiers returns a copy of e with every column reference made
// unqualified. Only valid for single-table expressions.
func stripQualifiers(e sqlengine.Expr) sqlengine.Expr {
	switch x := e.(type) {
	case *sqlengine.ColumnRef:
		if x.Table == "" {
			return x
		}
		return &sqlengine.ColumnRef{Column: x.Column}
	case *sqlengine.BinaryExpr:
		return &sqlengine.BinaryExpr{Op: x.Op, L: stripQualifiers(x.L), R: stripQualifiers(x.R)}
	case *sqlengine.UnaryExpr:
		return &sqlengine.UnaryExpr{Op: x.Op, X: stripQualifiers(x.X)}
	case *sqlengine.IsNullExpr:
		return &sqlengine.IsNullExpr{X: stripQualifiers(x.X), Not: x.Not}
	case *sqlengine.BetweenExpr:
		return &sqlengine.BetweenExpr{X: stripQualifiers(x.X), Lo: stripQualifiers(x.Lo), Hi: stripQualifiers(x.Hi), Not: x.Not}
	case *sqlengine.InExpr:
		out := &sqlengine.InExpr{X: stripQualifiers(x.X), Not: x.Not, Sub: x.Sub}
		for _, le := range x.List {
			out.List = append(out.List, stripQualifiers(le))
		}
		return out
	case *sqlengine.FuncCall:
		out := &sqlengine.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, stripQualifiers(a))
		}
		return out
	case *sqlengine.CaseExpr:
		out := &sqlengine.CaseExpr{}
		if x.Operand != nil {
			out.Operand = stripQualifiers(x.Operand)
		}
		for _, w := range x.Whens {
			out.Whens = append(out.Whens, sqlengine.CaseWhen{When: stripQualifiers(w.When), Then: stripQualifiers(w.Then)})
		}
		if x.Else != nil {
			out.Else = stripQualifiers(x.Else)
		}
		return out
	}
	return e
}

func hasParam(e sqlengine.Expr) bool {
	return !walkExpr(e, func(e sqlengine.Expr) bool {
		_, param := e.(*sqlengine.Param)
		return !param
	})
}

// VendorFromDriver maps a driver name ("gridsql-mysql") to its vendor key
// ("mysql").
func VendorFromDriver(driver string) string {
	return strings.TrimPrefix(driver, "gridsql-")
}
