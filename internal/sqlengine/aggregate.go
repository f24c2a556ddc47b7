package sqlengine

import (
	"context"
	"fmt"
	"io"
)

// aggIter evaluates GROUP BY, HAVING and aggregate functions: it drains
// its input into groups, in order of first appearance (a statement
// without GROUP BY is one group, even over no rows), then emits one row
// per group that passes HAVING — the select list followed by any hidden
// ORDER BY keys, each evaluated by evalAggExpr.
type aggIter struct {
	ctx   context.Context
	in    relIter
	sel   *SelectStmt
	cols  []string
	exprs []Expr
	env   *evalEnv

	prepared bool
	err      error
	rows     []Row
}

type group struct{ rows []Row }

func (a *aggIter) Columns() []string { return a.cols }

func (a *aggIter) Next() (Row, error) {
	if !a.prepared {
		a.prepared = true
		a.rows, a.err = a.aggregate()
	}
	if a.err != nil {
		return nil, a.err
	}
	if len(a.rows) == 0 {
		return nil, io.EOF
	}
	row := a.rows[0]
	a.rows = a.rows[1:]
	return row, nil
}

func (a *aggIter) Close() error {
	a.rows = nil
	return a.in.close()
}

func (a *aggIter) aggregate() ([]Row, error) {
	sch, err := a.in.schema()
	if err != nil {
		return nil, err
	}
	var groups []*group
	if len(a.sel.GroupBy) == 0 {
		groups = []*group{{}}
	}
	byKey := make(map[string]*group)
	for {
		if err := ctxErr(a.ctx); err != nil {
			return nil, err
		}
		row, err := a.in.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(a.sel.GroupBy) == 0 {
			groups[0].rows = append(groups[0].rows, row)
			continue
		}
		ec := a.env.bind(sch, row)
		keyVals := make([]Value, len(a.sel.GroupBy))
		for i, ge := range a.sel.GroupBy {
			v, err := evalExpr(ge, ec)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		k := indexKey(keyVals)
		g, ok := byKey[k]
		if !ok {
			g = &group{}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, row)
	}

	var out []Row
	for _, g := range groups {
		if a.sel.Having != nil {
			v, err := evalAggExpr(a.sel.Having, g, sch, a.env)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); !ok || v.IsNull() || !b {
				continue
			}
		}
		orow := make(Row, len(a.exprs))
		for i, e := range a.exprs {
			v, err := evalAggExpr(e, g, sch, a.env)
			if err != nil {
				return nil, err
			}
			orow[i] = v
		}
		out = append(out, orow)
	}
	return out, nil
}

// evalAggExpr evaluates an expression that may contain aggregate calls
// over the rows of one group: every aggregate call is computed over the
// group, then the rest of the expression is evaluated with those values
// in place. Non-aggregate column references resolve against the group's
// first row (they should be group-by keys; we do not verify, matching
// MySQL's permissive behaviour).
func evalAggExpr(e Expr, g *group, sch rowSchema, env *evalEnv) (Value, error) {
	folded, err := foldAggregates(e, g, sch, env)
	if err != nil {
		return Null(), err
	}
	var first Row
	if len(g.rows) > 0 {
		first = g.rows[0]
	} else {
		first = make(Row, len(sch))
	}
	return evalExpr(folded, env.bind(sch, first))
}

// foldAggregates returns e with every aggregate call replaced by a
// literal of its value over g, copying only the nodes above a call. It
// descends the nodes ContainsAggregate does.
func foldAggregates(e Expr, g *group, sch rowSchema, env *evalEnv) (Expr, error) {
	if !ContainsAggregate(e) {
		return e, nil
	}
	fold := func(xs ...Expr) ([]Expr, error) {
		out := make([]Expr, len(xs))
		for i, x := range xs {
			f, err := foldAggregates(x, g, sch, env)
			if err != nil {
				return nil, err
			}
			out[i] = f
		}
		return out, nil
	}
	switch x := e.(type) {
	case *FuncCall:
		if isAggregate(x.Name) {
			v, err := computeAggregate(x, g, sch, env)
			return &Literal{Val: v}, err
		}
		args, err := fold(x.Args...)
		if err != nil {
			return nil, err
		}
		c := *x
		c.Args = args
		return &c, nil
	case *BinaryExpr:
		f, err := fold(x.L, x.R)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, L: f[0], R: f[1]}, nil
	case *UnaryExpr:
		f, err := fold(x.X)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: x.Op, X: f[0]}, nil
	case *IsNullExpr:
		f, err := fold(x.X)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{X: f[0], Not: x.Not}, nil
	case *BetweenExpr:
		f, err := fold(x.X, x.Lo, x.Hi)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: f[0], Lo: f[1], Hi: f[2], Not: x.Not}, nil
	case *InExpr:
		f, err := fold(append([]Expr{x.X}, x.List...)...)
		if err != nil {
			return nil, err
		}
		return &InExpr{X: f[0], List: f[1:], Sub: x.Sub, Not: x.Not}, nil
	case *CaseExpr:
		parts := []Expr{x.Operand}
		for _, w := range x.Whens {
			parts = append(parts, w.When, w.Then)
		}
		f, err := fold(append(parts, x.Else)...)
		if err != nil {
			return nil, err
		}
		c := &CaseExpr{Operand: f[0], Whens: make([]CaseWhen, len(x.Whens)), Else: f[len(f)-1]}
		for i := range c.Whens {
			c.Whens[i] = CaseWhen{When: f[1+2*i], Then: f[2+2*i]}
		}
		return c, nil
	}
	return e, nil
}

func computeAggregate(fc *FuncCall, g *group, sch rowSchema, env *evalEnv) (Value, error) {
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
	seen := map[string]bool{}
	for _, row := range g.rows {
		v, err := evalExpr(fc.Args[0], env.bind(sch, row))
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		if fc.Distinct {
			k := indexKey([]Value{v})
			if seen[k] {
				continue
			}
			seen[k] = true
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
		var isum int64
		for _, v := range vals {
			f, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("sqlengine: %s over non-numeric value", fc.Name)
			}
			fsum += f
			if v.Kind == KindInt {
				isum += v.Int
			} else {
				allInt = false
			}
		}
		if fc.Name == "AVG" {
			return NewFloat(fsum / float64(len(vals))), nil
		}
		if allInt {
			return NewInt(isum), nil
		}
		return NewFloat(fsum), nil
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
