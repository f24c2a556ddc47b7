package sqlengine

import "sort"

// Access paths: how executor.open reads a table for a SELECT whose only
// FROM input it is, keeping open's three invariants — a superset of the
// matching rows, in table order, skipping no row the WHERE would have
// raised an error on. The last holds because a path is taken only when
// every top-level AND conjunct of the WHERE is one of the forms below,
// none of which can raise (a compiled AND still evaluates its right side
// when the left is NULL): `col op k` or `k op col` with op one of
// = <> < <= > >=,
// `col [NOT] BETWEEN k AND k`, `col [NOT] IN (k, ...)` and
// `col IS [NOT] NULL`, where col resolves to the table and k is a non-NULL
// literal or a supplied parameter. Only conjuncts on an INTEGER column
// with a numeric k, or a VARCHAR column with a string k, narrow the read:
// Compare equates '7' and 7, whose index keys differ.
const (
	pathSeek  = "seek"  // the rows a hash index finds for = conjuncts
	pathRange = "range" // a key range of a table stored in PK order
	pathScan  = "scan"  // every row
)

// seekTerm is one conjunct that narrows the read: col op k, with op one of
// = < <= > >=.
type seekTerm struct {
	col int
	op  string
	k   Value
}

// accessRows returns the rows of t a SELECT with the WHERE where over it
// (q its qualifier) reads, and the path that found them.
func (t *Table) accessRows(q string, where Expr, params []Value) ([]Row, string) {
	terms, ok := t.seekTerms(q, where, params, nil)
	if !ok || len(terms) == 0 {
		return t.Rows, pathScan
	}
	var cols []string
	var vals []Value
	for _, st := range terms {
		if st.op == "=" {
			cols, vals = append(cols, t.Columns[st.col].Name), append(vals, st.k)
		}
	}
	pos, seek := t.lookupIndex(cols, vals)
	lo, hi, ranged := t.rangeRows(terms)
	switch {
	case seek && (!ranged || len(pos) < hi-lo):
		rows := make([]Row, len(pos))
		for i, p := range pos {
			rows[i] = t.Rows[p]
		}
		return rows, pathSeek
	case ranged:
		return t.Rows[lo:hi:hi], pathRange
	}
	return t.Rows, pathScan
}

// seekTerms appends the narrowing conjuncts of where to terms, or returns
// false when some conjunct has none of the forms an access path allows.
func (t *Table) seekTerms(q string, where Expr, params []Value, terms []seekTerm) ([]seekTerm, bool) {
	switch x := where.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			terms, ok := t.seekTerms(q, x.L, params, terms)
			if !ok {
				return nil, false
			}
			return t.seekTerms(q, x.R, params, terms)
		case "=", "<>", "<", "<=", ">", ">=":
			op := x.Op
			ci, ok := t.accessCol(q, x.L)
			k, kok := accessKey(x.R, params)
			if !ok {
				ci, ok = t.accessCol(q, x.R)
				k, kok = accessKey(x.L, params)
				op = flipOp[op]
			}
			if !ok || !kok {
				return nil, false
			}
			if op != "<>" && t.narrows(ci, k) {
				terms = append(terms, seekTerm{ci, op, k})
			}
			return terms, true
		}
	case *BetweenExpr:
		ci, ok := t.accessCol(q, x.X)
		lo, lok := accessKey(x.Lo, params)
		hi, hok := accessKey(x.Hi, params)
		if !ok || !lok || !hok {
			return nil, false
		}
		if !x.Not && t.narrows(ci, lo) {
			terms = append(terms, seekTerm{ci, ">=", lo})
		}
		if !x.Not && t.narrows(ci, hi) {
			terms = append(terms, seekTerm{ci, "<=", hi})
		}
		return terms, true
	case *InExpr:
		if _, ok := t.accessCol(q, x.X); !ok || x.Sub != nil {
			return nil, false
		}
		for _, e := range x.List {
			if _, ok := accessKey(e, params); !ok {
				return nil, false
			}
		}
		return terms, true
	case *IsNullExpr:
		_, ok := t.accessCol(q, x.X)
		return terms, ok
	}
	return nil, false
}

// flipOp mirrors a comparison for `k op col`.
var flipOp = map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// accessCol returns the position of the column e names, when e is a
// reference the filter resolves to this table (unqualified, or by the
// table's qualifier q). An unqualified ROWNUM is the pseudo-column.
func (t *Table) accessCol(q string, e Expr) (int, bool) {
	cr, ok := e.(*ColumnRef)
	if !ok || cr.Table != "" && cr.Table != q || cr.Table == "" && cr.Column == "rownum" {
		return 0, false
	}
	return t.colPos(cr.Column)
}

// accessKey returns the value of a non-NULL literal or of a supplied
// non-NULL parameter.
func accessKey(e Expr, params []Value) (Value, bool) {
	var v Value
	switch x := e.(type) {
	case *Literal:
		v = x.Val
	case *Param:
		if x.Index >= len(params) {
			return Value{}, false
		}
		v = params[x.Index]
	default:
		return Value{}, false
	}
	return v, !v.IsNull()
}

// narrows reports whether k can narrow a read of column ci: an INTEGER
// column with a numeric k, or a VARCHAR column with a string k. On both,
// Compare equates two values exactly when appendIndexKey keys them alike.
func (t *Table) narrows(ci int, k Value) bool {
	switch t.Columns[ci].Type.Kind {
	case KindInt:
		return k.Kind == KindInt || k.Kind == KindFloat
	case KindString:
		return k.Kind == KindString
	}
	return false
}

// rangeRows returns the bounds [lo, hi) of the rows whose primary key
// satisfies every < <= > >= term on it, when the table is stored in key
// order (pkOrdered) and some term bounds the key.
func (t *Table) rangeRows(terms []seekTerm) (lo, hi int, ok bool) {
	ci, pk := t.pkKey()
	if !pk || !t.pkOrdered {
		return 0, 0, false
	}
	lo, hi = 0, len(t.Rows)
	for _, st := range terms {
		if st.col != ci || st.op == "=" {
			continue
		}
		// first is the first row whose key is past k (strict) or at or
		// past it.
		first := func(strict bool) int {
			return sort.Search(len(t.Rows), func(i int) bool {
				c := Compare(t.Rows[i][ci], st.k)
				return c > 0 || !strict && c == 0
			})
		}
		switch st.op {
		case ">":
			lo = max(lo, first(true))
		case ">=":
			lo = max(lo, first(false))
		case "<":
			hi = min(hi, first(false))
		case "<=":
			hi = min(hi, first(true))
		}
		ok = true
	}
	return lo, max(lo, hi), ok
}
