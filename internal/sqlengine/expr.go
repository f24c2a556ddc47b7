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

// find returns how many columns of s the reference (qualifier, name)
// matches, and the slot of the first.
func (s rowSchema) find(qualifier, name string) (slot, matches int) {
	slot = -1
	for i, b := range s {
		if b.name == name && (qualifier == "" || b.qualifier == qualifier) {
			if matches == 0 {
				slot = i
			}
			matches++
		}
	}
	return slot, matches
}

// nameError is the error of a column reference that matches n columns
// other than one.
func nameError(qualifier, name string, n int) error {
	switch {
	case n > 1:
		return fmt.Errorf("sqlengine: ambiguous column reference %q", name)
	case qualifier != "":
		return fmt.Errorf("sqlengine: unknown column %s.%s", qualifier, name)
	}
	return fmt.Errorf("sqlengine: unknown column %q", name)
}

// Expressions are compiled once per operator into evalFns that read the
// row at hand by slot. Compiling raises nothing: an unknown or ambiguous
// name, or a failing constant, compiles to a node that raises its error
// when it is evaluated (docs/INVARIANTS.md).

// scope holds the names an operator's expressions are compiled against:
// its input's schema, whether it numbers its rows (a filter's ROWNUM),
// and, for the operators of a subquery, the scope of the row the subquery
// runs for.
type scope struct {
	schema rowSchema
	rownum bool
	outer  *scope
	// reached is set when a reference compiled in a nested scope resolved
	// here or further out. A subquery runs against its own copy of its
	// caller's scope, so reached marks it correlated.
	reached bool
}

// resolve finds a column reference: how many scopes out and its slot
// there, -1 for that scope's ROWNUM. The innermost scope that knows the
// name answers; a name ambiguous there is an error, and only an unknown
// one is looked up further out.
func (sc *scope) resolve(qualifier, name string) (depth, slot int, err error) {
	for s := sc; s != nil; s, depth = s.outer, depth+1 {
		i, n := -1, 1 // an unqualified "rownum" where the scope numbers rows
		if !s.rownum || qualifier != "" || name != "rownum" {
			i, n = s.schema.find(qualifier, name)
		}
		switch {
		case n == 1:
			for r := sc; r != s; r = r.outer {
				r.outer.reached = true
			}
			return depth, i, nil
		case n > 1:
			return 0, 0, nameError(qualifier, name, n)
		}
	}
	return 0, 0, nameError(qualifier, name, 0)
}

// frame is what a compiled expression reads when it is evaluated: the row
// its operator points it at, that row's ROWNUM, and the statement's
// environment, whose outer frame a correlated reference reads.
type frame struct {
	row    Row
	rownum int64
	env    *evalEnv
}

// evalFn evaluates a compiled expression with SQL three-valued logic: a
// comparison with NULL yields NULL, which a boolean context treats as
// false.
type evalFn func(fr *frame) (Value, error)

// cexpr is a compiled expression; a constant's points at its value, to
// fold over and to compare against. Two words only: compiling runs
// deep in an operator's stack, and bigger frames there grow that stack.
type cexpr struct {
	eval  evalFn
	konst *Value
}

func dynamic(fn evalFn) cexpr { return cexpr{eval: fn} }

func constant(v Value) cexpr {
	return cexpr{eval: func(*frame) (Value, error) { return v, nil }, konst: &v}
}

func failing(err error) cexpr {
	return dynamic(func(*frame) (Value, error) { return Null(), err })
}

// fold returns fn as a node over args. When every arg is a constant and
// fn evaluates without error, the node is that constant; a failing
// constant keeps its error for evaluation time.
func fold(fn evalFn, args ...cexpr) cexpr {
	for _, a := range args {
		if a.konst == nil {
			return dynamic(fn)
		}
	}
	if v, err := fn(nil); err == nil {
		return constant(v)
	}
	return dynamic(fn)
}

// compiler compiles expressions in one scope. agg, when set, compiles an
// aggregate call (an aggregate operator's outputs); without it an
// aggregate call fails when evaluated.
type compiler struct {
	sc  *scope
	agg func(fc *FuncCall) evalFn
}

// evalConst evaluates an expression that reads no row: an INSERT value,
// a column DEFAULT.
func evalConst(e Expr, params []Value) (Value, error) {
	if lit, ok := e.(*Literal); ok {
		return lit.Val, nil
	}
	return (&compiler{sc: &scope{}}).compile(e).eval(&frame{env: &evalEnv{params: params}})
}

func (c *compiler) compile(e Expr) cexpr {
	switch x := e.(type) {
	case *Literal:
		return constant(x.Val)
	case *ColumnRef:
		return c.column(x)
	case *Param:
		i := x.Index
		return dynamic(func(fr *frame) (Value, error) {
			if i >= len(fr.env.params) {
				return Null(), fmt.Errorf("sqlengine: missing value for parameter %d", i+1)
			}
			return fr.env.params[i], nil
		})
	case *UnaryExpr:
		return c.unary(x)
	case *BinaryExpr:
		return c.binary(x)
	case *IsNullExpr:
		arg, not := c.compile(x.X), x.Not
		return fold(func(fr *frame) (Value, error) {
			v, err := arg.eval(fr)
			return NewBool(v.IsNull() != not), err
		}, arg)
	case *BetweenExpr:
		v, lo, hi, not := c.compile(x.X), c.compile(x.Lo), c.compile(x.Hi), x.Not
		vf, lof, hif := v.eval, lo.eval, hi.eval
		return fold(func(fr *frame) (Value, error) {
			vals, err := evalEach(fr, vf, lof, hif)
			if err != nil || vals[0].IsNull() || vals[1].IsNull() || vals[2].IsNull() {
				return Null(), err
			}
			return NewBool((Compare(vals[0], vals[1]) >= 0 && Compare(vals[0], vals[2]) <= 0) != not), nil
		}, v, lo, hi)
	case *InExpr:
		return c.in(x)
	case *FuncCall:
		return c.call(x)
	case *CaseExpr:
		return c.caseExpr(x)
	case *ExistsExpr:
		run := c.subquery(x.Sub, "EXISTS")
		return dynamic(func(fr *frame) (Value, error) {
			rs, err := run(fr)
			if err != nil {
				return Null(), err
			}
			return NewBool(len(rs.Rows) > 0), nil
		})
	}
	return failing(fmt.Errorf("sqlengine: unsupported expression %T", e))
}

func (c *compiler) column(x *ColumnRef) cexpr {
	depth, slot, err := c.sc.resolve(x.Table, x.Column)
	switch {
	case err != nil:
		return failing(err)
	case depth == 0 && slot >= 0:
		return dynamic(func(fr *frame) (Value, error) { return fr.row[slot], nil })
	}
	return dynamic(func(fr *frame) (Value, error) {
		for d := depth; d > 0; d-- {
			fr = fr.env.outer
		}
		if slot < 0 {
			return NewInt(fr.rownum), nil
		}
		return fr.row[slot], nil
	})
}

func (c *compiler) unary(x *UnaryExpr) cexpr {
	arg, op := c.compile(x.X), x.Op
	not, known := op == "NOT", op == "NOT" || op == "-"
	return fold(func(fr *frame) (Value, error) {
		v, err := arg.eval(fr)
		switch {
		case err != nil:
			return Null(), err
		case !known:
			return Null(), fmt.Errorf("sqlengine: unknown unary operator %q", op)
		case v.IsNull():
			return Null(), nil
		case not:
			b, ok := v.AsBool()
			if !ok {
				return Null(), fmt.Errorf("sqlengine: NOT applied to non-boolean %s", v.Kind)
			}
			return NewBool(!b), nil
		case v.Kind == KindInt && v.Int == math.MinInt64:
			return Null(), intOutOfRange(0, "-", v.Int)
		case v.Kind == KindInt:
			return NewInt(-v.Int), nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return Null(), fmt.Errorf("sqlengine: unary minus on non-numeric %s", v.Kind)
		}
		return NewFloat(-f), nil
	}, arg)
}

// binOps code the binary operators. A comparison's code is a mask: bit
// c+1 is set when a Compare result c satisfies it.
var binOps = map[string]uint8{"<": 0b001, "=": 0b010, "<=": 0b011, ">": 0b100, "<>": 0b101, ">=": 0b110,
	"AND": opAnd, "OR": opOr, "||": opConcat, "LIKE": opLike, "+": opArith, "-": opArith, "*": opArith, "/": opArith, "%": opArith}

const (
	opAnd = 8 + iota
	opOr
	opConcat
	opLike
	opArith
)

func (c *compiler) binary(x *BinaryExpr) cexpr {
	l, r, op := c.compile(x.L), c.compile(x.R), x.Op
	code, known := binOps[op]
	if known && code < opAnd {
		return fold(comparison(code, l, r), l, r)
	}
	if code == opAnd || code == opOr {
		return fold(logic(code == opOr, l.eval, r.eval), l, r)
	}
	lf, rf := l.eval, r.eval
	return fold(func(fr *frame) (Value, error) {
		vals, err := evalEach(fr, lf, rf)
		a, b := vals[0], vals[1]
		switch {
		case err != nil:
			return Null(), err
		case code == opArith:
			return Arith(op, a, b)
		case !known:
			return Null(), fmt.Errorf("sqlengine: unknown binary operator %q", op)
		case a.IsNull() || b.IsNull():
			return Null(), nil
		case code == opConcat:
			return NewString(a.String() + b.String()), nil
		}
		return NewBool(likeMatch(b.String(), a.String())), nil
	}, l, r)
}

// logic is AND (or false) or OR (or true): a side equal to the operator's
// deciding value decides, the left one without evaluating the right.
func logic(or bool, l, r evalFn) evalFn {
	return func(fr *frame) (Value, error) {
		lv, err := l(fr)
		if err != nil {
			return Null(), err
		}
		if decides(lv, or) {
			return NewBool(or), nil
		}
		rv, err := r(fr)
		switch {
		case err != nil:
			return Null(), err
		case decides(rv, or):
			return NewBool(or), nil
		case lv.IsNull() || rv.IsNull():
			return Null(), nil
		}
		return NewBool(!or), nil
	}
}

func decides(v Value, b bool) bool {
	if v.Kind == KindBool {
		return v.Bool() == b
	}
	vb, ok := v.AsBool()
	return ok && !v.IsNull() && vb == b
}

// comparison compiles l op r, op coded as a binOps mask. With a non-NULL
// constant on one side it evaluates only the other.
func comparison(mask uint8, l, r cexpr) evalFn {
	if l.konst != nil && r.konst == nil {
		// k op v is v op' k, op' the mirrored operator: < and > swap.
		l, r, mask = r, l, mask&0b010|mask>>2|mask<<2&0b100
	}
	lf, rf := l.eval, r.eval
	if r.konst == nil || r.konst.IsNull() || l.konst != nil {
		return func(fr *frame) (Value, error) {
			vals, err := evalEach(fr, lf, rf)
			if err != nil || vals[0].IsNull() || vals[1].IsNull() {
				return Null(), err
			}
			return NewBool(mask>>(Compare(vals[0], vals[1])+1)&1 != 0), nil
		}
	}
	k := *r.konst
	return func(fr *frame) (Value, error) {
		v, err := lf(fr)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		return NewBool(mask>>(Compare(v, k)+1)&1 != 0), nil
	}
}

// evalEach evaluates up to three expressions in order, stopping at the
// first error.
func evalEach(fr *frame, fns ...evalFn) ([3]Value, error) {
	var vals [3]Value
	for i, fn := range fns {
		v, err := fn(fr)
		if err != nil {
			return vals, err
		}
		vals[i] = v
	}
	return vals, nil
}

func (c *compiler) in(x *InExpr) cexpr {
	arg, not := c.compile(x.X), x.Not
	if x.Sub != nil {
		run := c.subquery(x.Sub, "IN (SELECT ...)")
		// A NULL x runs the subquery too: x IN over no rows is FALSE
		// (SQL-92 §8.4), even for a NULL x.
		return dynamic(func(fr *frame) (Value, error) {
			v, err := arg.eval(fr)
			if err != nil {
				return Null(), err
			}
			rs, err := run(fr)
			switch {
			case err != nil:
				return Null(), err
			case len(rs.Columns) != 1:
				return Null(), fmt.Errorf("sqlengine: IN subquery must return one column, got %d", len(rs.Columns))
			case v.IsNull() && len(rs.Rows) > 0:
				return Null(), nil
			}
			return inList(v, len(rs.Rows), func(i int) Value { return rs.Rows[i][0] }, not), nil
		})
	}
	list := make([]cexpr, len(x.List))
	for i, e := range x.List {
		list[i] = c.compile(e)
	}
	cands, argf := make([]Value, len(list)), arg.eval
	return fold(func(fr *frame) (Value, error) {
		v, err := argf(fr)
		if err != nil || v.IsNull() {
			return Null(), err
		}
		for i := range list {
			if cands[i], err = list[i].eval(fr); err != nil {
				return Null(), err
			}
		}
		return inList(v, len(cands), func(i int) Value { return cands[i] }, not), nil
	}, append(list, arg)...)
}

// inList is v [NOT] IN the n candidates at returns, for a v that is not
// NULL or no candidates.
func inList(v Value, n int, at func(i int) Value, not bool) Value {
	sawNull := false
	for i := range n {
		if c := at(i); c.IsNull() {
			sawNull = true
		} else if Compare(v, c) == 0 {
			return NewBool(!not)
		}
	}
	if sawNull {
		return Null()
	}
	return NewBool(not)
}

func (c *compiler) caseExpr(x *CaseExpr) cexpr {
	// parts are the operand, each arm's WHEN and THEN, and the ELSE; a
	// missing operand or ELSE is NULL.
	var parts []cexpr
	for _, e := range children(x, nil) {
		p := constant(Null())
		if e != nil {
			p = c.compile(e)
		}
		parts = append(parts, p)
	}
	simple := x.Operand != nil
	return fold(func(fr *frame) (Value, error) {
		operand, err := parts[0].eval(fr)
		if err != nil {
			return Null(), err
		}
		for i := 1; i+1 < len(parts); i += 2 {
			w, err := parts[i].eval(fr)
			if err != nil {
				return Null(), err
			}
			if b, ok := w.AsBool(); simple && Equal(operand, w) || !simple && !w.IsNull() && ok && b {
				return parts[i+1].eval(fr)
			}
		}
		return parts[len(parts)-1].eval(fr)
	}, parts...)
}

func (c *compiler) call(x *FuncCall) cexpr {
	if isAggregate(x.Name) {
		if c.agg != nil {
			return dynamic(c.agg(x))
		}
		return failing(fmt.Errorf("sqlengine: aggregate %s not allowed here", x.Name))
	}
	args := make([]cexpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compile(a)
	}
	name, buf := x.Name, make([]Value, len(args))
	fn := func(fr *frame) (Value, error) {
		for i := range args {
			v, err := args[i].eval(fr)
			if err != nil {
				return Null(), err
			}
			buf[i] = v
		}
		return callFunc(name, buf)
	}
	if name == "NOW" {
		return dynamic(fn)
	}
	return fold(fn, args...)
}

// subquery compiles the run of an IN or EXISTS sub-SELECT for the row a
// frame points at. The sub-SELECT's operators compile against the
// subquery's own copy of this scope; when its first run resolved no name
// there or further out, it is uncorrelated and that run's result is
// reused. So a sub-SELECT runs once per statement, or once per row it is
// evaluated for if it is correlated, and never before it is reached.
func (c *compiler) subquery(sel *SelectStmt, what string) func(*frame) (*ResultSet, error) {
	own := &scope{schema: c.sc.schema, rownum: c.sc.rownum, outer: c.sc.outer}
	var done *ResultSet
	return func(fr *frame) (*ResultSet, error) {
		if done != nil {
			return done, nil
		}
		if fr.env.exec == nil {
			return nil, fmt.Errorf("sqlengine: %s not supported in this context", what)
		}
		rs, err := fr.env.exec(sel, &evalEnv{params: fr.env.params, exec: fr.env.exec, outer: fr, outerScope: own})
		if err == nil && !own.reached {
			done = rs
		}
		return rs, err
	}
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

// callFunc applies the scalar function name to args; it keeps no
// reference to args.
func callFunc(name string, args []Value) (Value, error) {
	// Most functions take a fixed number of arguments, and are NULL when
	// the first one is (POWER when either is).
	arity, strict := 0, true
	switch name {
	case "LENGTH", "UPPER", "LOWER", "TRIM", "ABS", "FLOOR", "CEIL", "CEILING", "SQRT":
		arity = 1
	case "POWER", "POW":
		arity = 2
	case "MOD":
		arity, strict = 2, false
	case "REPLACE":
		arity = 3
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null(), fmt.Errorf("sqlengine: SUBSTR expects 2 or 3 arguments")
		}
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null(), fmt.Errorf("sqlengine: ROUND expects 1 or 2 arguments")
		}
	default:
		strict = false
	}
	if arity > 0 && len(args) != arity {
		return Null(), fmt.Errorf("sqlengine: %s expects %d arguments, got %d", name, arity, len(args))
	}
	if strict && (args[0].IsNull() || arity == 2 && args[1].IsNull()) {
		return Null(), nil
	}
	switch name {
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "LENGTH":
		return NewInt(int64(len(args[0].String()))), nil
	case "UPPER":
		return NewString(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		return NewString(strings.ToLower(args[0].String())), nil
	case "TRIM":
		return NewString(strings.TrimSpace(args[0].String())), nil
	case "SUBSTR", "SUBSTRING":
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
	case "MOD":
		return Arith("%", args[0], args[1])
	case "NOW":
		return NewTime(time.Now().UTC()), nil
	case "ABS":
		if args[0].Kind == KindInt {
			if args[0].Int < 0 {
				return NewInt(-args[0].Int), nil
			}
			return args[0], nil
		}
	}
	if !strict {
		return Null(), fmt.Errorf("sqlengine: unknown function %s", name)
	}
	// The numeric functions.
	f, ok := args[0].AsFloat()
	switch name {
	case "ABS", "ROUND":
		if !ok {
			return Null(), fmt.Errorf("sqlengine: %s on non-numeric", name)
		}
		if name == "ABS" {
			return NewFloat(math.Abs(f)), nil
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow10(int(digits))
		return NewFloat(math.Round(f*scale) / scale), nil
	case "FLOOR":
		return NewInt(int64(math.Floor(f))), nil
	case "CEIL", "CEILING":
		return NewInt(int64(math.Ceil(f))), nil
	case "SQRT":
		if f < 0 {
			return Null(), fmt.Errorf("sqlengine: SQRT of negative value")
		}
		return NewFloat(math.Sqrt(f)), nil
	}
	b, _ := args[1].AsFloat() // POWER
	return NewFloat(math.Pow(f, b)), nil
}

func isAggregate(name string) bool {
	_, ok := aggKinds[name]
	return ok
}

// ContainsAggregate reports whether e contains an aggregate call.
func ContainsAggregate(e Expr) bool {
	return !WalkExpr(e, func(e Expr) bool {
		fc, ok := e.(*FuncCall)
		return !ok || !isAggregate(fc.Name)
	})
}

// WalkExpr calls visit on e and, while visit returns true, on each of its
// operands in turn (children's order), depth first — not into
// subqueries. It reports whether every call returned true.
func WalkExpr(e Expr, visit func(Expr) bool) bool {
	if e == nil {
		return true
	}
	if !visit(e) {
		return false
	}
	var buf [3]Expr
	for _, c := range children(e, buf[:0]) {
		if !WalkExpr(c, visit) {
			return false
		}
	}
	return true
}

// children appends e's operands to buf (a walk's small array, so only a
// long IN list or CASE allocates) in evaluation order: no subquery, and
// a nil for CASE's missing operand or ELSE.
func children(e Expr, buf []Expr) []Expr {
	switch x := e.(type) {
	case *BinaryExpr:
		return append(buf, x.L, x.R)
	case *UnaryExpr:
		return append(buf, x.X)
	case *IsNullExpr:
		return append(buf, x.X)
	case *BetweenExpr:
		return append(buf, x.X, x.Lo, x.Hi)
	case *InExpr:
		return append(append(buf, x.X), x.List...)
	case *FuncCall:
		return x.Args
	case *CaseExpr:
		buf = append(buf, x.Operand)
		for _, w := range x.Whens {
			buf = append(buf, w.When, w.Then)
		}
		return append(buf, x.Else)
	}
	return nil
}
