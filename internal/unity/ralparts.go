package unity

import (
	"context"
	"fmt"
	"strings"

	"gridrdb/internal/sqlengine"
)

// QuerySource runs raw SQL on one member database and drains the result
// (the schema tracker introspects live sources with it, and the proximity
// prober times it).
func (f *Federation) QuerySource(ctx context.Context, name, sqlText string) (*sqlengine.ResultSet, error) {
	it, err := f.runOnSourceStreamCtx(ctx, name, sqlText, nil)
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
// one source database. Labels heads the answer with its logical column
// names where some field's physical name differs; nil otherwise, when the
// RAL's own names are the logical ones.
type RALParts struct {
	Source string
	Fields []string
	Tables []string
	Where  string
	Labels []string
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
// across databases, aggregates, grouping, ordering, limits, parameters or
// subqueries, whose references to the one table the call could not
// qualify) and if so returns the pieces for the RAL's select call, derived
// from the statement and source the plan retained.
func (f *Federation) RALPartsFor(plan *Plan) (*RALParts, bool) {
	sel := plan.sel
	if !plan.Pushdown || sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil ||
		len(sel.OrderBy) > 0 || sel.Limit >= 0 || sel.Offset > 0 ||
		sel.Union != nil || len(sel.Joins) > 0 || len(sel.From) != 1 || len(sqlengine.Subqueries(sel)) > 0 {
		return nil, false
	}
	m := plan.names
	parts := &RALParts{Source: plan.pushSource}
	loc := m.loc(sel.From[0].Name)
	parts.Tables = []string{loc.Table}
	relabel := false
	for _, it := range sel.Items {
		switch {
		case it.Star && it.StarTable == "":
			// As in a pushdown, a star over renamed columns is listed.
			if !renamed(loc.Spec.Columns) {
				parts.Fields = append(parts.Fields, "*")
				continue
			}
			for _, c := range loc.Spec.Columns {
				parts.Fields = append(parts.Fields, c.Name)
			}
			relabel = true
		case it.Star:
			return nil, false
		default:
			cr, ok := it.Expr.(*sqlengine.ColumnRef)
			if !ok || it.Alias != "" {
				return nil, false
			}
			phys, err := m.physColumn(cr.Table, cr.Column)
			if err != nil {
				return nil, false
			}
			parts.Fields = append(parts.Fields, phys)
			relabel = relabel || !strings.EqualFold(phys, cr.Column)
		}
	}
	if relabel {
		for _, it := range sel.Items {
			if it.Star {
				parts.Labels = append(parts.Labels, specLogicalCols(loc.Spec)...)
			} else {
				parts.Labels = append(parts.Labels, it.Expr.(*sqlengine.ColumnRef).Column)
			}
		}
	}
	if sel.Where != nil {
		if hasParam(sel.Where) {
			return nil, false
		}
		// The RAL call names the table without an alias, so its columns
		// are named bare (unambiguous: the query addresses one table).
		r := &renderer{d: f.dialectOf(plan.pushSource), m: m, unqualified: true}
		where, err := r.expr(sel.Where)
		if err != nil {
			return nil, false
		}
		parts.Where = where
	}
	return parts, true
}

func hasParam(e sqlengine.Expr) bool {
	return !sqlengine.WalkExpr(e, func(e sqlengine.Expr) bool {
		_, param := e.(*sqlengine.Param)
		return !param
	})
}

// VendorFromDriver maps a driver name ("gridsql-mysql") to its vendor key
// ("mysql").
func VendorFromDriver(driver string) string {
	return strings.TrimPrefix(driver, "gridsql-")
}
