package unity

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gridrdb/internal/sqlengine"
	"gridrdb/internal/xspec"
)

// nameMapper maps a statement's logical names to the physical names of
// the source it is rendered for, through the data dictionary's entries
// for the statement's own tables there (§4.4).
type nameMapper struct {
	refs []mappedRef
}

// mappedRef is one table reference of the statement: the logical table
// it names, what qualifies its columns (its alias, else that name) and
// the table's dictionary entry at the source.
type mappedRef struct {
	table, qualifier string
	loc              *xspec.TableLocation
}

func (m *nameMapper) add(tr sqlengine.TableRef, loc *xspec.TableLocation) {
	q := tr.Alias
	if q == "" {
		q = tr.Name
	}
	m.refs = append(m.refs, mappedRef{table: tr.Name, qualifier: q, loc: loc})
}

// loc returns the dictionary entry of the statement's table named
// logical, or nil.
func (m *nameMapper) loc(logical string) *xspec.TableLocation {
	for _, r := range m.refs {
		if strings.EqualFold(r.table, logical) {
			return r.loc
		}
	}
	return nil
}

// logicalCols lists the logical columns of the statement's table named
// logical, or nil when the dictionary does not know them.
func (m *nameMapper) logicalCols(logical string) []string {
	if loc := m.loc(logical); loc != nil {
		return specLogicalCols(loc.Spec)
	}
	return nil
}

func (m *nameMapper) physTable(logical string) string {
	if loc := m.loc(logical); loc != nil {
		return loc.Table
	}
	return logical
}

// renamed reports whether a table stores some column under another name
// than its logical one.
func renamed(cols []xspec.ColumnSpec) bool {
	return slices.ContainsFunc(cols, func(c xspec.ColumnSpec) bool {
		return !strings.EqualFold(c.Name, xspec.LogicalName(c.Logical, c.Name))
	})
}

// physColumn maps a column reference through the tables it may name: the
// ones its qualifier names or, when it is bare, every table of the
// statement. Those that have the column must map it to one physical name
// (a column none has keeps its name), and no other column of theirs may
// have that name; otherwise the name would resolve otherwise at the
// source than in the statement, and rendering fails.
func (m *nameMapper) physColumn(qualifier, column string) (string, error) {
	lc := strings.ToLower(column)
	phys, found := column, false
	for _, r := range m.refs {
		if qualifier != "" && !strings.EqualFold(r.qualifier, qualifier) {
			continue
		}
		if p, ok := r.loc.ColByLogical[lc]; ok {
			if found && !strings.EqualFold(p, phys) {
				return "", fmt.Errorf("unity: column %q is %q in one table and %q in another", column, phys, p)
			}
			phys, found = p, true
		}
	}
	for _, r := range m.refs {
		if qualifier != "" && !strings.EqualFold(r.qualifier, qualifier) {
			continue
		}
		for _, c := range r.loc.Spec.Columns {
			if strings.EqualFold(c.Name, phys) && xspec.LogicalName(c.Logical, c.Name) != lc {
				return "", fmt.Errorf("unity: column %q is stored as %q, the name of %s's column %q", column, phys, r.table, c.Logical)
			}
		}
	}
	return phys, nil
}

// renderer renders a parsed statement back to SQL in a target dialect.
// unqualified renders column references without their qualifier (a RAL
// WHERE, whose call names its one table without an alias). top is the
// statement whose answer the source returns to the client (a pushdown),
// or nil (a load): its select items are headed by their logical names.
type renderer struct {
	d           *sqlengine.Dialect
	m           *nameMapper
	unqualified bool
	top         *sqlengine.SelectStmt
}

// RenderSelect renders a SELECT AST in the target dialect with logical
// names rewritten to physical names: a per-table sub-query, whose columns
// the operators read under their logical names.
func RenderSelect(d *sqlengine.Dialect, sel *sqlengine.SelectStmt, m *nameMapper) (string, error) {
	r := &renderer{d: d, m: m}
	return r.selectSQL(sel)
}

// renderPushdown renders a statement a source answers whole. A select
// item whose column the source stores under another name is rendered AS
// its logical name, and a star over such a table column by column, so the
// answer is headed as one engine holding the logical tables heads it,
// whichever route serves it.
func renderPushdown(d *sqlengine.Dialect, sel *sqlengine.SelectStmt, m *nameMapper) (string, error) {
	r := &renderer{d: d, m: m, top: sel}
	return r.selectSQL(sel)
}

func (r *renderer) selectSQL(sel *sqlengine.SelectStmt) (string, error) {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if sel.Distinct {
		sb.WriteString("DISTINCT ")
	}
	limit := sel.Limit
	if limit >= 0 && r.d.LimitStyle == sqlengine.LimitTop {
		if sel.Offset > 0 {
			return "", fmt.Errorf("unity: OFFSET is not expressible in %s", r.d.Name)
		}
		fmt.Fprintf(&sb, "TOP %d ", limit)
	}
	for i, it := range sel.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star && sel == r.top && r.starColumns(&sb, sel, it.StarTable):
		case it.Star && it.StarTable == "":
			sb.WriteString("*")
		case it.Star:
			fmt.Fprintf(&sb, "%s.*", r.d.QuoteIdent(it.StarTable))
		default:
			s, err := r.expr(it.Expr)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
			label := it.Alias
			if cr, ok := it.Expr.(*sqlengine.ColumnRef); ok && label == "" && sel == r.top {
				if phys, _ := r.m.physColumn(cr.Table, cr.Column); !strings.EqualFold(phys, cr.Column) {
					label = cr.Column
				}
			}
			if label != "" {
				sb.WriteString(" AS ")
				sb.WriteString(r.d.QuoteIdent(label))
			}
		}
	}
	if len(sel.From) > 0 {
		sb.WriteString(" FROM ")
		for i, tr := range sel.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(r.tableRef(tr))
		}
		for _, jc := range sel.Joins {
			switch jc.Kind {
			case sqlengine.JoinInner:
				sb.WriteString(" JOIN ")
			case sqlengine.JoinLeft:
				sb.WriteString(" LEFT JOIN ")
			case sqlengine.JoinRight:
				sb.WriteString(" RIGHT JOIN ")
			case sqlengine.JoinCross:
				sb.WriteString(" CROSS JOIN ")
			}
			sb.WriteString(r.tableRef(jc.Table))
			if jc.On != nil {
				on, err := r.expr(jc.On)
				if err != nil {
					return "", err
				}
				sb.WriteString(" ON ")
				sb.WriteString(on)
			}
		}
	}
	where := sel.Where
	if limit >= 0 && r.d.LimitStyle == sqlengine.LimitRownum {
		// Oracle: fold the limit into the WHERE clause as a ROWNUM bound.
		// ROWNUM numbers the rows as WHERE passes them, before grouping,
		// aggregates, DISTINCT and ORDER BY, so it is the LIMIT only of a
		// statement that has none of them.
		aggregated := slices.ContainsFunc(sel.Items, func(it sqlengine.SelectItem) bool { return sqlengine.ContainsAggregate(it.Expr) })
		if aggregated || sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 {
			return "", fmt.Errorf("unity: LIMIT after grouping, DISTINCT or ORDER BY is not expressible in %s", r.d.Name)
		}
		rownum := &sqlengine.BinaryExpr{
			Op: "<=",
			L:  &sqlengine.ColumnRef{Column: "rownum"},
			R:  &sqlengine.Literal{Val: sqlengine.NewInt(limit)},
		}
		if where != nil {
			where = &sqlengine.BinaryExpr{Op: "AND", L: where, R: rownum}
		} else {
			where = rownum
		}
		if sel.Offset > 0 {
			return "", fmt.Errorf("unity: OFFSET is not expressible in %s", r.d.Name)
		}
	}
	if where != nil {
		s, err := r.expr(where)
		if err != nil {
			return "", err
		}
		sb.WriteString(" WHERE ")
		sb.WriteString(s)
	}
	if len(sel.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range sel.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			s, err := r.expr(e)
			if err != nil {
				return "", err
			}
			sb.WriteString(s)
		}
	}
	if sel.Having != nil {
		s, err := r.expr(sel.Having)
		if err != nil {
			return "", err
		}
		sb.WriteString(" HAVING ")
		sb.WriteString(s)
	}
	if sel.Union != nil {
		sb.WriteString(" UNION ")
		if sel.UnionAll {
			sb.WriteString("ALL ")
		}
		s, err := r.selectSQL(sel.Union)
		if err != nil {
			return "", err
		}
		sb.WriteString(s)
		return sb.String(), nil
	}
	if len(sel.OrderBy) > 0 {
		// A key the engine resolves to an output column renders as that
		// column's ordinal: mapped as a table column, an output alias
		// could name another column at the source.
		var outCols []string
		if sp, _ := sqlengine.AnalyzeStreamSelect(sel, r.m.logicalCols); sp != nil {
			outCols = sp.Branches[0].OutCols
		}
		sb.WriteString(" ORDER BY ")
		for i, o := range sel.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			if n, err := sqlengine.OutputOrdinal(o.Expr, outCols); err == nil && n >= 0 {
				sb.WriteString(strconv.Itoa(n + 1))
			} else if err := r.orderKeyHidden(sel, o.Expr, outCols); err != nil {
				return "", err
			} else if s, err := r.expr(o.Expr); err != nil {
				return "", err
			} else {
				sb.WriteString(s)
			}
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if limit >= 0 && r.d.LimitStyle == sqlengine.LimitClause {
		fmt.Fprintf(&sb, " LIMIT %d", limit)
		if sel.Offset > 0 {
			fmt.Fprintf(&sb, " OFFSET %d", sel.Offset)
		}
	} else if sel.Offset > 0 && r.d.LimitStyle == sqlengine.LimitClause {
		fmt.Fprintf(&sb, " LIMIT %d OFFSET %d", int64(1)<<62, sel.Offset)
	} else if sel.Offset > 0 {
		return "", fmt.Errorf("unity: OFFSET is not expressible in %s", r.d.Name)
	}
	return sb.String(), nil
}

// starColumns renders the top statement's star (qualifier "") or
// qualifier.* column by column, each column AS its logical name where the
// source's name differs, when a table it covers stores some column under
// another name. It reports false, writing nothing, when none does or a
// table's columns are unknown: the star then renders as itself.
func (r *renderer) starColumns(sb *strings.Builder, sel *sqlengine.SelectStmt, qualifier string) bool {
	var items []string
	expand := false
	for _, tr := range sqlengine.BranchTables(sel) {
		q := tr.Alias
		if q == "" {
			q = tr.Name
		}
		if qualifier != "" && !strings.EqualFold(q, qualifier) {
			continue
		}
		loc := r.m.loc(tr.Name)
		if loc == nil || len(loc.Spec.Columns) == 0 {
			return false
		}
		expand = expand || renamed(loc.Spec.Columns)
		for _, c := range loc.Spec.Columns {
			item := r.d.QuoteIdent(q) + "." + r.d.QuoteIdent(c.Name)
			if l := xspec.LogicalName(c.Logical, c.Name); !strings.EqualFold(c.Name, l) {
				item += " AS " + r.d.QuoteIdent(l)
			}
			items = append(items, item)
		}
	}
	if expand {
		sb.WriteString(strings.Join(items, ", "))
	}
	return expand
}

// orderKeyHidden fails an ORDER BY column of the top statement that the
// source would read as an output column: its physical name is the
// logical name of one the answer is headed by, while the statement orders
// by the stored column.
func (r *renderer) orderKeyHidden(sel *sqlengine.SelectStmt, key sqlengine.Expr, outCols []string) error {
	cr, ok := key.(*sqlengine.ColumnRef)
	if !ok || sel != r.top {
		return nil
	}
	phys, err := r.m.physColumn(cr.Table, cr.Column)
	if err == nil && !strings.EqualFold(phys, cr.Column) && slices.Contains(outCols, strings.ToLower(phys)) {
		return fmt.Errorf("unity: ORDER BY column %q is stored as %q, the name of an output column", cr.Column, phys)
	}
	return nil
}

// tableRef renders a table reference under the name the statement
// qualifies it by: a table stored under another name keeps its logical
// name as its alias.
func (r *renderer) tableRef(tr sqlengine.TableRef) string {
	phys := r.m.physTable(tr.Name)
	alias := tr.Alias
	if alias == "" {
		alias = tr.Name
	}
	if strings.EqualFold(alias, phys) {
		return r.d.QuoteIdent(phys)
	}
	return r.d.QuoteIdent(phys) + " " + r.d.QuoteIdent(alias)
}

func (r *renderer) expr(e sqlengine.Expr) (string, error) {
	switch x := e.(type) {
	case *sqlengine.Literal:
		return x.Val.SQLLiteral(), nil
	case *sqlengine.ColumnRef:
		if x.Column == "rownum" && x.Table == "" {
			return "ROWNUM", nil
		}
		phys, err := r.m.physColumn(x.Table, x.Column)
		if err != nil {
			return "", err
		}
		if x.Table != "" && !r.unqualified {
			return r.d.QuoteIdent(x.Table) + "." + r.d.QuoteIdent(phys), nil
		}
		return r.d.QuoteIdent(phys), nil
	case *sqlengine.Param:
		return "?", nil
	case *sqlengine.BinaryExpr:
		l, err := r.expr(x.L)
		if err != nil {
			return "", err
		}
		rhs, err := r.expr(x.R)
		if err != nil {
			return "", err
		}
		if x.Op == "||" {
			// Use the dialect's concatenation spelling (CONCAT on MySQL,
			// + on MS-SQL, || elsewhere).
			return "(" + r.d.Concat(l, rhs) + ")", nil
		}
		return fmt.Sprintf("(%s %s %s)", l, x.Op, rhs), nil
	case *sqlengine.UnaryExpr:
		s, err := r.expr(x.X)
		if err != nil {
			return "", err
		}
		if x.Op == "NOT" {
			return "(NOT " + s + ")", nil
		}
		return "(" + x.Op + s + ")", nil
	case *sqlengine.IsNullExpr:
		s, err := r.expr(x.X)
		if err != nil {
			return "", err
		}
		if x.Not {
			return "(" + s + " IS NOT NULL)", nil
		}
		return "(" + s + " IS NULL)", nil
	case *sqlengine.BetweenExpr:
		v, err := r.expr(x.X)
		if err != nil {
			return "", err
		}
		lo, err := r.expr(x.Lo)
		if err != nil {
			return "", err
		}
		hi, err := r.expr(x.Hi)
		if err != nil {
			return "", err
		}
		not := ""
		if x.Not {
			not = "NOT "
		}
		return fmt.Sprintf("(%s %sBETWEEN %s AND %s)", v, not, lo, hi), nil
	case *sqlengine.InExpr:
		v, err := r.expr(x.X)
		if err != nil {
			return "", err
		}
		not := ""
		if x.Not {
			not = "NOT "
		}
		if x.Sub != nil {
			sub, err := r.selectSQL(x.Sub)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("(%s %sIN (%s))", v, not, sub), nil
		}
		parts := make([]string, len(x.List))
		for i, le := range x.List {
			s, err := r.expr(le)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		return fmt.Sprintf("(%s %sIN (%s))", v, not, strings.Join(parts, ", ")), nil
	case *sqlengine.FuncCall:
		if x.Star {
			return x.Name + "(*)", nil
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			s, err := r.expr(a)
			if err != nil {
				return "", err
			}
			parts[i] = s
		}
		prefix := ""
		if x.Distinct {
			prefix = "DISTINCT "
		}
		return fmt.Sprintf("%s(%s%s)", x.Name, prefix, strings.Join(parts, ", ")), nil
	case *sqlengine.CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		if x.Operand != nil {
			s, err := r.expr(x.Operand)
			if err != nil {
				return "", err
			}
			sb.WriteString(" " + s)
		}
		for _, w := range x.Whens {
			ws, err := r.expr(w.When)
			if err != nil {
				return "", err
			}
			ts, err := r.expr(w.Then)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, " WHEN %s THEN %s", ws, ts)
		}
		if x.Else != nil {
			es, err := r.expr(x.Else)
			if err != nil {
				return "", err
			}
			sb.WriteString(" ELSE " + es)
		}
		sb.WriteString(" END")
		return sb.String(), nil
	case *sqlengine.ExistsExpr:
		sub, err := r.selectSQL(x.Sub)
		if err != nil {
			return "", err
		}
		return "EXISTS (" + sub + ")", nil
	}
	return "", fmt.Errorf("unity: cannot render expression %T", e)
}
