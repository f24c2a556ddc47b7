package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// colBinding names one column slot of a working row during execution.
type colBinding struct {
	qualifier string // table alias or name (already normalized), may be ""
	name      string
}

// rowSchema is the ordered set of bindings for a working row.
type rowSchema []colBinding

func (s rowSchema) lookup(qualifier, name string) (int, error) {
	found := -1
	for i, b := range s {
		if b.name != name {
			continue
		}
		if qualifier != "" && b.qualifier != qualifier {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlengine: ambiguous column reference %q", name)
		}
		found = i
	}
	if found < 0 {
		if qualifier != "" {
			return 0, fmt.Errorf("sqlengine: unknown column %s.%s", qualifier, name)
		}
		return 0, fmt.Errorf("sqlengine: unknown column %q", name)
	}
	return found, nil
}

// selectFunc runs the SELECT of an IN or EXISTS subquery.
type selectFunc func(sel *SelectStmt, params []Value, outer *evalContext) (*ResultSet, error)

// evalContext carries everything an expression needs at evaluation time.
type evalContext struct {
	schema rowSchema
	row    Row
	params []Value
	// rownum is the Oracle pseudo-column value for the current candidate
	// row (1-based); 0 means unavailable.
	rownum int64
	// exec lets EXISTS / IN-subquery re-enter the executor.
	exec selectFunc
	// outer allows correlated lookups one level up (best effort).
	outer *evalContext
}

func (ec *evalContext) lookup(qualifier, name string) (Value, error) {
	if name == "rownum" && qualifier == "" && ec.rownum > 0 {
		return NewInt(ec.rownum), nil
	}
	i, err := ec.schema.lookup(qualifier, name)
	if err != nil {
		if ec.outer != nil {
			if v, oerr := ec.outer.lookup(qualifier, name); oerr == nil {
				return v, nil
			}
		}
		return Null(), err
	}
	return ec.row[i], nil
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
	if v.IsNull() {
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

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitive
// (matching MySQL's default collation, which the paper's deployment used
// for the marts).
func likeMatch(pattern, s string) bool {
	p := strings.ToLower(pattern)
	t := strings.ToLower(s)
	// Iterative two-pointer matcher with backtracking on '%'.
	var pi, ti int
	star, starTi := -1, 0
	for ti < len(t) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == t[ti]):
			pi++
			ti++
		case pi < len(p) && p[pi] == '%':
			star, starTi = pi, ti
			pi++
		case star >= 0:
			starTi++
			ti = starTi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
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
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlengine: %s expects %d arguments, got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewInt(int64(len(args[0].String()))), nil
	case "UPPER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewString(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewString(strings.ToLower(args[0].String())), nil
	case "TRIM":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewString(strings.TrimSpace(args[0].String())), nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null(), fmt.Errorf("sqlengine: SUBSTR expects 2 or 3 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		s := args[0].String()
		start, _ := args[1].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return NewString(""), nil
		}
		rest := s[start-1:]
		if len(args) == 3 {
			n, _ := args[2].AsInt()
			if n < 0 {
				n = 0
			}
			if int(n) < len(rest) {
				rest = rest[:n]
			}
		}
		return NewString(rest), nil
	case "REPLACE":
		if err := need(3); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return NewString(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null(), nil
			}
			sb.WriteString(a.String())
		}
		return NewString(sb.String()), nil
	case "ABS":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if args[0].Kind == KindInt {
			if args[0].Int < 0 {
				return NewInt(-args[0].Int), nil
			}
			return args[0], nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("sqlengine: ABS on non-numeric")
		}
		return NewFloat(math.Abs(f)), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null(), fmt.Errorf("sqlengine: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("sqlengine: ROUND on non-numeric")
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow10(int(digits))
		return NewFloat(math.Round(f*scale) / scale), nil
	case "FLOOR":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, _ := args[0].AsFloat()
		return NewInt(int64(math.Floor(f))), nil
	case "CEIL", "CEILING":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, _ := args[0].AsFloat()
		return NewInt(int64(math.Ceil(f))), nil
	case "SQRT":
		if err := need(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, _ := args[0].AsFloat()
		if f < 0 {
			return Null(), fmt.Errorf("sqlengine: SQRT of negative value")
		}
		return NewFloat(math.Sqrt(f)), nil
	case "POWER", "POW":
		if err := need(2); err != nil {
			return Null(), err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null(), nil
		}
		a, _ := args[0].AsFloat()
		b, _ := args[1].AsFloat()
		return NewFloat(math.Pow(a, b)), nil
	case "MOD":
		if err := need(2); err != nil {
			return Null(), err
		}
		return Arith("%", args[0], args[1])
	case "NOW":
		return NewTime(time.Now().UTC()), nil
	}
	return Null(), fmt.Errorf("sqlengine: unknown function %s", x.Name)
}

func isAggregate(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// ContainsAggregate reports whether e contains an aggregate call.
func ContainsAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *FuncCall:
		if isAggregate(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if ContainsAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return ContainsAggregate(x.L) || ContainsAggregate(x.R)
	case *UnaryExpr:
		return ContainsAggregate(x.X)
	case *IsNullExpr:
		return ContainsAggregate(x.X)
	case *BetweenExpr:
		return ContainsAggregate(x.X) || ContainsAggregate(x.Lo) || ContainsAggregate(x.Hi)
	case *InExpr:
		if ContainsAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if ContainsAggregate(a) {
				return true
			}
		}
	case *CaseExpr:
		if x.Operand != nil && ContainsAggregate(x.Operand) {
			return true
		}
		for _, w := range x.Whens {
			if ContainsAggregate(w.When) || ContainsAggregate(w.Then) {
				return true
			}
		}
		if x.Else != nil {
			return ContainsAggregate(x.Else)
		}
	}
	return false
}
