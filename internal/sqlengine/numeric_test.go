package sqlengine

import (
	"math"
	"math/big"
	"strings"
	"testing"
)

// TestIntegerOverflow: integer arithmetic and an integer SUM whose exact
// result does not fit in int64 fail the statement (MySQL's BIGINT rule)
// instead of wrapping around, on the engine and on the oracle alike. A
// SUM that passes the range on the way but ends inside it is exact, and a
// group HAVING drops never raises its SUM's error.
func TestIntegerOverflow(t *testing.T) {
	e := NewEngine("overflow", DialectANSI)
	mustExec(t, e, "CREATE TABLE big (g BIGINT, id BIGINT)")
	mustExec(t, e, "INSERT INTO big VALUES (1, 4611686018427387904), (1, 4611686018427387904), (1, 9007199254740993)")
	mustExec(t, e, "INSERT INTO big VALUES (2, 4611686018427387904), (2, 4611686018427387904), (2, -4611686018427387904)")
	mustExec(t, e, "CREATE TABLE edge (id BIGINT)")
	mustExec(t, e, "INSERT INTO edge VALUES (4611686018427387904), (-9223372036854775807 - 1)")

	for _, sql := range []string{
		"SELECT SUM(id) FROM big WHERE g = 1",
		"SELECT id + id FROM edge WHERE id > 0",
		"SELECT id * 4 FROM edge WHERE id > 0",
		"SELECT -id FROM edge WHERE id < 0",
		"SELECT id / -1 FROM edge WHERE id < 0",
		"SELECT id - 1 FROM edge WHERE id < 0",
	} {
		if rs, err := e.Query(sql); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s = %v, %v; want an out-of-range error", sql, rs, err)
		}
		if rs, err := refQuery(e, sql); err == nil {
			t.Errorf("oracle: %s = %v, want an error", sql, rs)
		}
	}

	for sql, want := range map[string]int64{
		"SELECT SUM(id) FROM big WHERE g = 2":             1 << 62,
		"SELECT SUM(id) FROM big GROUP BY g HAVING g = 2": 1 << 62,
		"SELECT id - 1 + id FROM edge WHERE id > 0":       math.MaxInt64,
		"SELECT id + 1 FROM edge WHERE id < 0":            math.MinInt64 + 1,
		"SELECT id % -1 FROM edge WHERE id < 0":           0,
	} {
		for name, query := range map[string]func(*Engine, string, ...Value) (*ResultSet, error){"engine": (*Engine).Query, "oracle": refQuery} {
			rs, err := query(e, sql)
			if err != nil {
				t.Errorf("%s: %s: %v", name, sql, err)
				continue
			}
			if len(rs.Rows) != 1 || rs.Rows[0][0].Kind != KindInt || rs.Rows[0][0].Int != want {
				t.Errorf("%s: %s = %v, want [[%d]]", name, sql, rs.Rows, want)
			}
		}
	}
}

// numericEdges are the int64 operands FuzzNumericSemantics starts from:
// the ends of the range, the powers of two around them, and the integers
// around 2^53, past which a float64 no longer holds every integer.
var numericEdges = []int64{
	math.MinInt64, math.MinInt64 + 1, -1 << 62, -1<<53 - 1, -1 << 53, -1<<53 + 1,
	-2, -1, 0, 1, 2,
	1<<53 - 1, 1 << 53, 1<<53 + 1, 1 << 62, math.MaxInt64 - 1, math.MaxInt64,
}

// FuzzNumericSemantics checks integer + - * / %, and unary minus, against
// math/big: an integer result is the exact value when that value fits in
// int64 and an error when it does not. An inexact / promotes to the float
// quotient, and a zero divisor is an error.
func FuzzNumericSemantics(f *testing.F) {
	for _, a := range numericEdges {
		for _, b := range numericEdges {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b int64) {
		x, y := big.NewInt(a), big.NewInt(b)
		// wantInt checks got against the exact value z: z itself when it
		// fits in int64, else an error.
		wantInt := func(what string, got Value, err error, z *big.Int) {
			t.Helper()
			switch {
			case !z.IsInt64():
				if err == nil {
					t.Errorf("%s = %v, want an out-of-range error (exact %s)", what, got, z)
				}
			case err != nil:
				t.Errorf("%s: %v, want %s", what, err, z)
			case got.Kind != KindInt || got.Int != z.Int64():
				t.Errorf("%s = %v (%s), want %s", what, got, got.Kind, z)
			}
		}
		for _, op := range []string{"+", "-", "*", "/", "%"} {
			what := x.String() + " " + op + " " + y.String()
			got, err := Arith(op, NewInt(a), NewInt(b))
			z := new(big.Int)
			switch op {
			case "+":
				wantInt(what, got, err, z.Add(x, y))
			case "-":
				wantInt(what, got, err, z.Sub(x, y))
			case "*":
				wantInt(what, got, err, z.Mul(x, y))
			case "/", "%":
				if b == 0 {
					if err == nil {
						t.Errorf("%s = %v, want a division-by-zero error", what, got)
					}
					continue
				}
				q, r := new(big.Int).QuoRem(x, y, new(big.Int))
				switch {
				case op == "%":
					wantInt(what, got, err, r)
				case r.Sign() == 0:
					wantInt(what, got, err, q)
				case err != nil || got.Kind != KindFloat || got.Float != float64(a)/float64(b):
					t.Errorf("%s = %v, %v; want the float quotient %v", what, got, err, float64(a)/float64(b))
				}
			}
		}
		neg := &UnaryExpr{Op: "-", X: &Literal{Val: NewInt(a)}}
		got, err := evalExpr(neg, &evalContext{})
		wantInt("-("+x.String()+")", got, err, new(big.Int).Neg(x))
	})
}
