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
// list followed by any hidden ORDER BY keys.
//
// Everything is compiled once, over the input's schema: the GROUP BY
// keys, each aggregate call's argument, and HAVING and the outputs, in
// which an aggregate call reads its value for the group being output and
// any other column reference the group's first row (it should be a GROUP
// BY key; we do not verify, matching MySQL's permissive behaviour).
type aggIter struct {
	ctx   context.Context
	in    relIter
	sel   *SelectStmt
	cols  []string
	exprs []Expr
	env   *evalEnv

	// calls are the aggregate calls of exprs and HAVING, each once; a
	// group's accs[i] folds calls[i], and vals[i] is its value for the
	// group being output.
	calls []aggCall
	vals  []Value
	fr    *frame // re-pointed at each input row, then each group's first
	key   []byte // scratch for group and DISTINCT keys

	prepared bool
	err      error
	rows     []Row
}

type aggKind uint8

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggKinds = map[string]aggKind{"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax}

// aggCall is one aggregate call with its kind, resolved once, and its
// argument compiled over the input rows: nil for COUNT(*) and for a call
// with other than one argument, which value rejects.
type aggCall struct {
	fc   *FuncCall
	kind aggKind
	arg  evalFn
}

// aggOutput is HAVING or an output compiled over a group. Its aggregate
// calls are computed, in tree order, before it is evaluated, so the first
// failing call's error wins over anything the rest of it would raise.
type aggOutput struct {
	calls []int
	eval  evalFn
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
	iwrap  int64               // times isum wrapped: +1 past MaxInt64, -1 past MinInt64
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
	sc := &scope{schema: sch, outer: a.env.outerScope}
	a.fr = &frame{env: a.env}
	index := map[*FuncCall]int{} // calls, matched by pointer
	var calls []int              // those of the output being compiled
	over := &compiler{sc: sc, agg: func(fc *FuncCall) evalFn {
		i, ok := index[fc]
		if !ok {
			i = len(a.calls)
			index[fc] = i
			a.calls = append(a.calls, aggCall{fc: fc, kind: aggKinds[fc.Name]})
		}
		calls = append(calls, i)
		return func(*frame) (Value, error) { return a.vals[i], nil }
	}}
	// outs are the outputs, then HAVING (with a nil eval when there is none).
	outs := make([]aggOutput, len(a.exprs)+1)
	for i, e := range append(a.exprs[:len(a.exprs):len(a.exprs)], a.sel.Having) {
		if calls = nil; e != nil {
			fn := over.compile(e).eval
			outs[i] = aggOutput{calls: calls, eval: fn}
		}
	}
	outs, having := outs[:len(a.exprs)], outs[len(a.exprs)]
	rows := &compiler{sc: sc}
	for i := range a.calls {
		if c := &a.calls[i]; !c.fc.Star && len(c.fc.Args) == 1 {
			c.arg = rows.compile(c.fc.Args[0]).eval
		}
	}
	a.vals = make([]Value, len(a.calls))
	keys := make([]evalFn, len(a.sel.GroupBy))
	for i, ge := range a.sel.GroupBy {
		keys[i] = rows.compile(ge).eval
	}

	var groups []*group
	if len(keys) == 0 {
		groups = []*group{a.newGroup()}
	}
	byKey := make(map[string]*group)
	keyVals := make([]Value, len(keys))
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
		a.fr.row = row
		if len(keys) == 0 {
			a.fold(groups[0], row)
			continue
		}
		for i, key := range keys {
			if keyVals[i], err = key(a.fr); err != nil {
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
	for _, g := range groups {
		a.fr.row = g.first
		if g.count == 0 {
			a.fr.row = make(Row, len(sch))
		}
		if having.eval != nil {
			v, err := a.output(having, g)
			if err != nil {
				return nil, err
			}
			if !decides(v, true) {
				continue
			}
		}
		orow := make(Row, len(outs))
		for i, o := range outs {
			if orow[i], err = a.output(o, g); err != nil {
				return nil, err
			}
		}
		out = append(out, orow)
	}
	return out, nil
}

// output evaluates o for group g, which a.fr points at.
func (a *aggIter) output(o aggOutput, g *group) (Value, error) {
	for _, i := range o.calls {
		v, err := g.accs[i].value(&a.calls[i], g.count)
		if err != nil {
			return Null(), err
		}
		a.vals[i] = v
	}
	return o.eval(a.fr)
}

func (a *aggIter) newGroup() *group {
	g := &group{accs: make([]accumulator, len(a.calls))}
	for i, c := range a.calls {
		if c.fc.Distinct {
			g.accs[i].seen = map[string]struct{}{}
		}
	}
	return g
}

// fold adds row, which a.fr points at, to g.
func (a *aggIter) fold(g *group, row Row) {
	if g.count == 0 {
		g.first = row
	}
	g.count++
	for i := range a.calls {
		c, acc := &a.calls[i], &g.accs[i]
		if c.arg == nil || acc.err != nil {
			continue
		}
		v, err := c.arg(a.fr)
		switch {
		case err != nil:
			acc.err = err
			continue
		case v.IsNull():
			continue
		case c.fc.Distinct:
			a.key = appendIndexKey(a.key[:0], v)
			if _, dup := acc.seen[string(a.key)]; dup {
				continue
			}
			acc.seen[string(a.key)] = struct{}{}
		}
		acc.n++
		switch c.kind {
		case aggSum, aggAvg:
			f, ok := v.AsFloat()
			if !ok {
				acc.nonNum = true
				continue
			}
			acc.fsum += f
			if v.Kind == KindInt {
				s := acc.isum + v.Int
				if (acc.isum^s)&(v.Int^s) < 0 {
					if v.Int > 0 {
						acc.iwrap++
					} else {
						acc.iwrap--
					}
				}
				acc.isum = s
			} else {
				acc.notInt = true
			}
		case aggMin, aggMax:
			if o := Compare(v, acc.best); acc.n == 1 || c.kind == aggMin && o < 0 || c.kind == aggMax && o > 0 {
				acc.best = v
			}
		}
	}
}

// value is c's value over a group of count rows, or its deferred error:
// a static one, else an argument-evaluation error, else a non-numeric
// SUM/AVG value, else an integer SUM outside int64.
func (acc *accumulator) value(c *aggCall, count int64) (Value, error) {
	switch fc := c.fc; {
	case fc.Star && c.kind != aggCount:
		return Null(), fmt.Errorf("sqlengine: %s(*) is not valid", fc.Name)
	case fc.Star:
		return NewInt(count), nil
	case len(fc.Args) != 1:
		return Null(), fmt.Errorf("sqlengine: aggregate %s expects one argument", fc.Name)
	case acc.err != nil:
		return Null(), acc.err
	case c.kind == aggCount:
		return NewInt(acc.n), nil
	case acc.n == 0:
		return Null(), nil
	case acc.nonNum:
		return Null(), fmt.Errorf("sqlengine: %s over non-numeric value", fc.Name)
	case c.kind == aggAvg && acc.notInt:
		return NewFloat(acc.fsum / float64(acc.n)), nil
	case c.kind == aggAvg:
		return NewFloat(nearestQuotient(acc.iwrap, acc.isum, acc.n)), nil
	case c.kind == aggSum && acc.notInt:
		return NewFloat(acc.fsum), nil
	case c.kind == aggSum && acc.iwrap != 0:
		return Null(), fmt.Errorf("sqlengine: BIGINT value is out of range in SUM")
	case c.kind == aggSum:
		return NewInt(acc.isum), nil
	}
	return acc.best, nil
}
