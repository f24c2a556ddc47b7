package unity

import (
	"slices"
	"strings"

	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// Column pruning: a decomposed load selects only the columns the
// statement reads of its table, so no layer its rows cross carries a
// cell nothing reads. It errs towards keeping, so every reference
// resolves — or fails as ambiguous — as it would over whole tables.

// reads is what a statement reads of its tables: every column reference
// in its select lists, ON, WHERE, GROUP BY, HAVING and ORDER BY, in every
// UNION branch and IN/EXISTS subquery at any depth (lower-cased), and the
// logical tables a * or t.* reads whole.
type reads struct {
	refs  []sqlengine.ColumnRef
	whole map[string]bool
}

func statementReads(sel *sqlengine.SelectStmt) *reads {
	r := &reads{whole: map[string]bool{}}
	r.selectStmt(sel)
	return r
}

func (r *reads) selectStmt(sel *sqlengine.SelectStmt) {
	for s := sel; s != nil; s = s.Union {
		for _, it := range s.Items {
			if !it.Star {
				r.expr(it.Expr)
				continue
			}
			for _, tr := range sqlengine.BranchTables(s) {
				if it.StarTable == "" || strings.EqualFold(it.StarTable, tr.Alias) || strings.EqualFold(it.StarTable, tr.Name) {
					r.whole[strings.ToLower(tr.Name)] = true
				}
			}
		}
		for _, jc := range s.Joins {
			r.expr(jc.On)
		}
		r.expr(s.Where)
		r.expr(s.Having)
		for _, g := range s.GroupBy {
			r.expr(g)
		}
		for _, o := range s.OrderBy {
			r.expr(o.Expr)
		}
	}
}

func (r *reads) expr(e sqlengine.Expr) {
	sqlengine.WalkExpr(e, func(e sqlengine.Expr) bool {
		switch x := e.(type) {
		case *sqlengine.ColumnRef:
			r.refs = append(r.refs, sqlengine.ColumnRef{Table: strings.ToLower(x.Table), Column: strings.ToLower(x.Column)})
		case *sqlengine.InExpr:
			if x.Sub != nil {
				r.selectStmt(x.Sub)
			}
		case *sqlengine.ExistsExpr:
			r.selectStmt(x.Sub)
		}
		return true
	})
}

// columns returns the columns ld's load selects: the spec columns the
// statement reads, in spec order, or all of them when a star reads the
// table whole. A load that would keep none keeps the first, so that it
// still yields one row per table row (COUNT(*) counts them). Nil when
// the spec has no columns.
func (r *reads) columns(ld *tableLoad, uses []tableUse) []string {
	all := specLogicalCols(ld.loc.Spec)
	if all == nil || r.whole[strings.ToLower(ld.logical)] {
		return all
	}
	var names []string // what the table goes by: its name and every alias
	for _, u := range uses {
		if strings.EqualFold(u.ref.Name, ld.logical) {
			names = append(names, strings.ToLower(u.ref.Name), strings.ToLower(u.ref.Alias))
		}
	}
	read := map[string]bool{}
	for i := range r.refs {
		if ref := &r.refs[i]; mayName(ref, names, ld.loc) {
			read[ref.Column] = true
		}
	}
	var keep []string
	for _, c := range all {
		if read[c] {
			keep = append(keep, c)
		}
	}
	if keep == nil {
		keep = all[:1]
	}
	return keep
}

// mayName reports whether a column reference may name a column of the
// table at loc that goes by names (lower-cased): a qualified reference
// when it is qualified by one of them, an unqualified one when the table
// has the column or, its columns unknown (a peer planned without them),
// may have it. Pruning keeps what it may name; pushdown leaves a column
// unattributed that it may name in another table of the scope.
func mayName(ref *sqlengine.ColumnRef, names []string, loc xspec.TableLocation) bool {
	if ref.Table != "" {
		return slices.Contains(names, strings.ToLower(ref.Table))
	}
	_, has := loc.ColByLogical[strings.ToLower(ref.Column)]
	return has || len(loc.Spec.Columns) == 0
}

// specLogicalCols lists a table spec's logical column names in spec
// order: every column a load of the table may select. Nil when the spec
// carries no columns (a peer table planned without them: its load is
// SELECT * and the layout is only known at run time).
func specLogicalCols(spec xspec.TableSpec) []string {
	if len(spec.Columns) == 0 {
		return nil
	}
	cols := make([]string, len(spec.Columns))
	for i, c := range spec.Columns {
		cols[i] = xspec.LogicalName(c.Logical, c.Name)
	}
	return cols
}
