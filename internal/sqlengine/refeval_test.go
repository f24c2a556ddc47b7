package sqlengine

import (
	"fmt"
	"math"
)

// This file is the name-resolving tree walker that evaluated every
// expression before expressions were compiled once per operator
// (expr.go), kept as the differential oracle's evaluator (refexec_test.go):
// it resolves each column reference by name on every row it evaluates
// and compares through Compare. Scalar functions (callFunc), arithmetic
// (Arith) and LIKE (likeMatch) are the production primitives it shares.

// lookup returns the slot of the one column (qualifier, name) names.
func (s rowSchema) lookup(qualifier, name string) (int, error) {
	i, n := s.find(qualifier, name)
	if n != 1 {
		return 0, nameError(qualifier, name, n)
	}
	return i, nil
}

// refSelectFunc runs the SELECT of an IN or EXISTS subquery.
type refSelectFunc func(sel *SelectStmt, params []Value, outer *evalContext) (*ResultSet, error)

// evalContext carries everything an expression needs at evaluation time.
type evalContext struct {
	schema rowSchema
	row    Row
	params []Value
	// rownum is the Oracle pseudo-column value for the current candidate
	// row (1-based); 0 means unavailable.
	rownum int64
	// exec lets EXISTS / IN-subquery re-enter the executor.
	exec refSelectFunc
	// outer allows correlated lookups one level up.
	outer *evalContext
}

// lookup resolves a column reference in the innermost context that knows
// the name: a name ambiguous there is an error, and only an unknown one is
// looked up in the enclosing row's context.
func (ec *evalContext) lookup(qualifier, name string) (Value, error) {
	for c := ec; c != nil; c = c.outer {
		if name == "rownum" && qualifier == "" && c.rownum > 0 {
			return NewInt(c.rownum), nil
		}
		switch i, n := c.schema.find(qualifier, name); {
		case n == 1:
			return c.row[i], nil
		case n > 1:
			return Null(), nameError(qualifier, name, n)
		}
	}
	return Null(), nameError(qualifier, name, 0)
}

// evalExpr evaluates e in ctx with SQL three-valued logic folded to: NULL
// comparisons yield NULL (represented as Value{KindNull}); boolean contexts
// treat NULL as false.
func evalExpr(e Expr, ec *evalContext) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColumnRef:
		return ec.lookup(x.Table, x.Column)
	case *Param:
		if ec.params == nil || x.Index >= len(ec.params) {
			return Null(), fmt.Errorf("sqlengine: missing value for parameter %d", x.Index+1)
		}
		return ec.params[x.Index], nil
	case *UnaryExpr:
		v, err := evalExpr(x.X, ec)
		if err != nil {
			return Null(), err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			b, ok := v.AsBool()
			if !ok {
				return Null(), fmt.Errorf("sqlengine: NOT applied to non-boolean %s", v.Kind)
			}
			return NewBool(!b), nil
		case "-":
			if v.IsNull() {
				return Null(), nil
			}
			if v.Kind == KindInt {
				if v.Int == math.MinInt64 {
					return Null(), intOutOfRange(0, "-", v.Int)
				}
				return NewInt(-v.Int), nil
			}
			f, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("sqlengine: unary minus on non-numeric %s", v.Kind)
			}
			return NewFloat(-f), nil
		}
		return Null(), fmt.Errorf("sqlengine: unknown unary operator %q", x.Op)
	case *BinaryExpr:
		return evalBinary(x, ec)
	case *IsNullExpr:
		v, err := evalExpr(x.X, ec)
		if err != nil {
			return Null(), err
		}
		if x.Not {
			return NewBool(!v.IsNull()), nil
		}
		return NewBool(v.IsNull()), nil
	case *BetweenExpr:
		v, err := evalExpr(x.X, ec)
		if err != nil {
			return Null(), err
		}
		lo, err := evalExpr(x.Lo, ec)
		if err != nil {
			return Null(), err
		}
		hi, err := evalExpr(x.Hi, ec)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null(), nil
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return NewBool(in), nil
	case *InExpr:
		return evalIn(x, ec)
	case *FuncCall:
		return evalFunc(x, ec)
	case *CaseExpr:
		return evalCase(x, ec)
	case *ExistsExpr:
		if ec.exec == nil {
			return Null(), fmt.Errorf("sqlengine: EXISTS not supported in this context")
		}
		rs, err := ec.exec(x.Sub, ec.params, ec)
		if err != nil {
			return Null(), err
		}
		return NewBool(len(rs.Rows) > 0), nil
	}
	return Null(), fmt.Errorf("sqlengine: unsupported expression %T", e)
}

func evalBinary(x *BinaryExpr, ec *evalContext) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalExpr(x.L, ec)
		if err != nil {
			return Null(), err
		}
		if lb, ok := l.AsBool(); ok && !l.IsNull() && !lb {
			return NewBool(false), nil
		}
		r, err := evalExpr(x.R, ec)
		if err != nil {
			return Null(), err
		}
		if rb, ok := r.AsBool(); ok && !r.IsNull() && !rb {
			return NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return NewBool(true), nil
	case "OR":
		l, err := evalExpr(x.L, ec)
		if err != nil {
			return Null(), err
		}
		if lb, ok := l.AsBool(); ok && !l.IsNull() && lb {
			return NewBool(true), nil
		}
		r, err := evalExpr(x.R, ec)
		if err != nil {
			return Null(), err
		}
		if rb, ok := r.AsBool(); ok && !r.IsNull() && rb {
			return NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return NewBool(false), nil
	}
	l, err := evalExpr(x.L, ec)
	if err != nil {
		return Null(), err
	}
	r, err := evalExpr(x.R, ec)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return Arith(x.Op, l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return NewString(l.String() + r.String()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := Compare(l, r)
		var b bool
		switch x.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return NewBool(b), nil
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return NewBool(likeMatch(r.String(), l.String())), nil
	}
	return Null(), fmt.Errorf("sqlengine: unknown binary operator %q", x.Op)
}

func evalIn(x *InExpr, ec *evalContext) (Value, error) {
	v, err := evalExpr(x.X, ec)
	if err != nil {
		return Null(), err
	}
	if v.IsNull() && x.Sub == nil {
		return Null(), nil
	}
	var candidates []Value
	if x.Sub != nil {
		if ec.exec == nil {
			return Null(), fmt.Errorf("sqlengine: IN (SELECT ...) not supported in this context")
		}
		rs, err := ec.exec(x.Sub, ec.params, ec)
		if err != nil {
			return Null(), err
		}
		if len(rs.Columns) != 1 {
			return Null(), fmt.Errorf("sqlengine: IN subquery must return one column, got %d", len(rs.Columns))
		}
		for _, row := range rs.Rows {
			candidates = append(candidates, row[0])
		}
	} else {
		for _, e := range x.List {
			c, err := evalExpr(e, ec)
			if err != nil {
				return Null(), err
			}
			candidates = append(candidates, c)
		}
	}
	if v.IsNull() && len(candidates) > 0 {
		return Null(), nil // over no rows, a NULL x is not IN (SQL-92 §8.4)
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if Compare(v, c) == 0 {
			if x.Not {
				return NewBool(false), nil
			}
			return NewBool(true), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return NewBool(x.Not), nil
}

func evalCase(x *CaseExpr, ec *evalContext) (Value, error) {
	var operand Value
	hasOperand := x.Operand != nil
	if hasOperand {
		v, err := evalExpr(x.Operand, ec)
		if err != nil {
			return Null(), err
		}
		operand = v
	}
	for _, arm := range x.Whens {
		w, err := evalExpr(arm.When, ec)
		if err != nil {
			return Null(), err
		}
		matched := false
		if hasOperand {
			matched = Equal(operand, w)
		} else if !w.IsNull() {
			b, ok := w.AsBool()
			matched = ok && b
		}
		if matched {
			return evalExpr(arm.Then, ec)
		}
	}
	if x.Else != nil {
		return evalExpr(x.Else, ec)
	}
	return Null(), nil
}

// evalFunc evaluates scalar functions. Aggregates are folded into
// literals by the aggregate operator before evaluation and never reach
// here.
func evalFunc(x *FuncCall, ec *evalContext) (Value, error) {
	if isAggregate(x.Name) {
		return Null(), fmt.Errorf("sqlengine: aggregate %s not allowed here", x.Name)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(a, ec)
		if err != nil {
			return Null(), err
		}
		args[i] = v
	}
	return callFunc(x.Name, args)
}
