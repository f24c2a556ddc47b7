package sqlengine

import (
	"context"
	"fmt"
	"io"
)

// aggIter evaluates GROUP BY, HAVING and aggregate functions. It folds
// each input row into its group as the row arrives — groups in order of
// first appearance; a statement without GROUP BY is one group, even over
// no rows — and a group keeps its first row, its row count and one
// running accumulator per aggregate call, never its rows. At the first
// Next it computes every group's output (so a LIMIT skips no group's
// error) and then emits one row per group that passes HAVING: the select
// list followed by any hidden ORDER BY keys, each evaluated by
// evalAggExpr.
type aggIter struct {
	ctx   context.Context
	in    relIter
	sel   *SelectStmt
	cols  []string
	exprs []Expr
	env   *evalEnv

	// calls are the aggregate calls foldAggregates replaces in exprs and
	// HAVING, each once; a group's accs[i] folds calls[i].
	calls []*FuncCall
	ec    *evalContext // re-pointed at each input row, then each group's first
	key   []byte       // scratch for group and DISTINCT keys

	prepared bool
	err      error
	rows     []Row
}

type group struct {
	first Row
	count int64
	accs  []accumulator
}

// accumulator folds one aggregate call over a group's rows in input
// order, so a float sum is the one a pass over the rows computes. Its
// errors wait until the call is folded for an output row: a group HAVING
// drops never raises them.
type accumulator struct {
	n      int64 // values folded: non-NULL, and unseen under DISTINCT
	fsum   float64
	isum   int64
	notInt bool                // a SUM/AVG value was not an INTEGER
	best   Value               // MIN, MAX
	seen   map[string]struct{} // DISTINCT, keyed by appendIndexKey
	err    error               // the first argument-evaluation error
	nonNum bool                // a SUM/AVG value was non-numeric
}

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
	index := map[*FuncCall]int{} // calls, matched by pointer
	register := func(fc *FuncCall) (Value, error) {
		if _, ok := index[fc]; !ok {
			index[fc] = len(a.calls)
			a.calls = append(a.calls, fc)
		}
		return Null(), nil
	}
	for _, e := range append(a.exprs[:len(a.exprs):len(a.exprs)], a.sel.Having) {
		_, _ = foldAggregates(e, register) // register never fails
	}
	a.ec = a.env.bind(sch)

	var groups []*group
	if len(a.sel.GroupBy) == 0 {
		groups = []*group{a.newGroup()}
	}
	byKey := make(map[string]*group)
	keyVals := make([]Value, len(a.sel.GroupBy))
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
		a.ec.row = row
		if len(a.sel.GroupBy) == 0 {
			a.fold(groups[0], row)
			continue
		}
		for i, ge := range a.sel.GroupBy {
			if keyVals[i], err = evalExpr(ge, a.ec); err != nil {
				return nil, err
			}
		}
		a.key = appendIndexKey(a.key[:0], keyVals...)
		g, ok := byKey[string(a.key)]
		if !ok {
			g = a.newGroup()
			byKey[string(a.key)] = g
			groups = append(groups, g)
		}
		a.fold(g, row)
	}

	var out []Row
	var g *group
	value := func(fc *FuncCall) (Value, error) { return g.accs[index[fc]].value(fc, g.count) }
	for _, g = range groups {
		a.ec.row = g.first
		if g.count == 0 {
			a.ec.row = make(Row, len(sch))
		}
		if a.sel.Having != nil {
			v, err := evalAggExpr(a.sel.Having, value, a.ec)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); !ok || v.IsNull() || !b {
				continue
			}
		}
		orow := make(Row, len(a.exprs))
		for i, e := range a.exprs {
			v, err := evalAggExpr(e, value, a.ec)
			if err != nil {
				return nil, err
			}
			orow[i] = v
		}
		out = append(out, orow)
	}
	return out, nil
}

func (a *aggIter) newGroup() *group {
	g := &group{accs: make([]accumulator, len(a.calls))}
	for i, fc := range a.calls {
		if fc.Distinct {
			g.accs[i].seen = map[string]struct{}{}
		}
	}
	return g
}

// fold adds row, which a.ec points at, to g.
func (a *aggIter) fold(g *group, row Row) {
	if g.count == 0 {
		g.first = row
	}
	g.count++
	for i, fc := range a.calls {
		acc := &g.accs[i]
		if fc.Star || len(fc.Args) != 1 || acc.err != nil {
			continue
		}
		v, err := evalExpr(fc.Args[0], a.ec)
		switch {
		case err != nil:
			acc.err = err
			continue
		case v.IsNull():
			continue
		case fc.Distinct:
			a.key = appendIndexKey(a.key[:0], v)
			if _, dup := acc.seen[string(a.key)]; dup {
				continue
			}
			acc.seen[string(a.key)] = struct{}{}
		}
		acc.n++
		switch fc.Name {
		case "SUM", "AVG":
			f, ok := v.AsFloat()
			if !ok {
				acc.nonNum = true
				continue
			}
			acc.fsum += f
			if v.Kind == KindInt {
				acc.isum += v.Int
			} else {
				acc.notInt = true
			}
		case "MIN", "MAX":
			if c := Compare(v, acc.best); acc.n == 1 || fc.Name == "MIN" && c < 0 || fc.Name == "MAX" && c > 0 {
				acc.best = v
			}
		}
	}
}

// value is fc's value over a group of count rows, or its deferred error:
// a static one, else an argument-evaluation error, else a non-numeric
// SUM/AVG value.
func (acc *accumulator) value(fc *FuncCall, count int64) (Value, error) {
	switch {
	case fc.Star && fc.Name != "COUNT":
		return Null(), fmt.Errorf("sqlengine: %s(*) is not valid", fc.Name)
	case fc.Star:
		return NewInt(count), nil
	case len(fc.Args) != 1:
		return Null(), fmt.Errorf("sqlengine: aggregate %s expects one argument", fc.Name)
	case acc.err != nil:
		return Null(), acc.err
	case fc.Name == "COUNT":
		return NewInt(acc.n), nil
	case acc.n == 0:
		return Null(), nil
	case acc.nonNum:
		return Null(), fmt.Errorf("sqlengine: %s over non-numeric value", fc.Name)
	case fc.Name == "AVG":
		return NewFloat(acc.fsum / float64(acc.n)), nil
	case fc.Name == "SUM" && acc.notInt:
		return NewFloat(acc.fsum), nil
	case fc.Name == "SUM":
		return NewInt(acc.isum), nil
	}
	return acc.best, nil
}

// evalAggExpr evaluates an expression that may contain aggregate calls:
// every aggregate call is replaced by its value, then the rest of the
// expression is evaluated in ec, pointed at the group's first row
// (non-aggregate column references should be group-by keys; we do not
// verify, matching MySQL's permissive behaviour).
func evalAggExpr(e Expr, value func(*FuncCall) (Value, error), ec *evalContext) (Value, error) {
	folded, err := foldAggregates(e, value)
	if err != nil {
		return Null(), err
	}
	return evalExpr(folded, ec)
}

// foldAggregates returns e with every aggregate call replaced by a
// literal of its value, copying only the nodes above a call. It descends
// the nodes ContainsAggregate does.
func foldAggregates(e Expr, value func(*FuncCall) (Value, error)) (Expr, error) {
	if !ContainsAggregate(e) {
		return e, nil
	}
	fold := func(xs ...Expr) ([]Expr, error) {
		out := make([]Expr, len(xs))
		for i, x := range xs {
			f, err := foldAggregates(x, value)
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
			v, err := value(x)
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
