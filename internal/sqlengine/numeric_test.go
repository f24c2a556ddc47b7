package sqlengine

import (
	"context"
	"math"
	"math/big"
	"strconv"
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

// TestExactIntegerQuotient: an inexact integer / and an AVG of integers
// are the DOUBLE nearest the exact value, rounded once, not a quotient of
// operands already rounded to float64.
func TestExactIntegerQuotient(t *testing.T) {
	e := NewEngine("quotient", DialectANSI)
	mustExec(t, e, "CREATE TABLE w (id BIGINT)")
	mustExec(t, e, "INSERT INTO w VALUES (9007199254740993), (1)")
	for sql, want := range map[string]float64{
		"SELECT 9007199254740995 / 3":       3002399751580331.5,
		"SELECT -9007199254740995 / 3":      -3002399751580331.5,
		"SELECT AVG(id) FROM w":             4503599627370497,
		"SELECT id / 2 FROM w WHERE id > 1": 4503599627370496.5,
	} {
		for name, query := range map[string]func(*Engine, string, ...Value) (*ResultSet, error){"engine": (*Engine).Query, "oracle": refQuery} {
			rs, err := query(e, sql)
			if err != nil {
				t.Errorf("%s: %s: %v", name, sql, err)
				continue
			}
			if len(rs.Rows) != 1 || rs.Rows[0][0].Kind != KindFloat || rs.Rows[0][0].Float != want {
				t.Errorf("%s: %s = %v, want [[%.1f]]", name, sql, rs.Rows, want)
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

// FuzzNumericSemantics checks integer + - * / %, unary minus and AVG
// against math/big: an integer result is the exact value when that value
// fits in int64 and an error when it does not. An inexact / and the AVG of
// a, b and b are the DOUBLE nearest the exact value, and a zero divisor is
// an error. It reads a and b as floats
// too, their bits (so −0.0, NaN and ±Inf) and their values, and checks
// that Compare orders those numbers as math/big does, a NaN equal only to
// a NaN and before every other number; that a numeral whose value is an
// int (' 7', '07', '7.0', '7e0', at any size) compares as that int, and
// converts to it, that '7.5' compares with an int by its exact value and
// with a DOUBLE as the DOUBLE it reads as, and 'NaN' or 'Inf' as text.
func FuzzNumericSemantics(f *testing.F) {
	for _, a := range numericEdges {
		for _, b := range numericEdges {
			f.Add(a, b)
		}
	}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, 1 << 53, 1 << 63}
	for _, x := range floats {
		for _, y := range floats {
			f.Add(int64(math.Float64bits(x)), int64(math.Float64bits(y)))
		}
	}
	avg, _ := NewParser(DialectANSI).ParseStatement("SELECT AVG(x) FROM v")
	avgPlan, reason := AnalyzeStreamSelect(avg.(*SelectStmt), func(string) []string { return []string{"x"} })
	if avgPlan == nil {
		f.Fatal(reason)
	}
	f.Fuzz(func(t *testing.T, a, b int64) {
		x, y := big.NewInt(a), big.NewInt(b)
		nearest := func(num *big.Int, den int64) float64 {
			q, _ := new(big.Rat).SetFrac(num, big.NewInt(den)).Float64()
			return q
		}
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
				case err != nil || got.Kind != KindFloat || got.Float != nearest(x, b):
					t.Errorf("%s = %v, %v; want the nearest DOUBLE %v", what, got, err, nearest(x, b))
				}
			}
		}
		rows := &ResultSet{Columns: []string{"x"}, Rows: []Row{{NewInt(a)}, {NewInt(b)}, {NewInt(b)}}}
		it, err := StreamSelect(context.Background(), avgPlan, []StreamInput{{Source: avgPlan.Branches[0].Inputs[0], Columns: rows.Columns, Iter: SliceIter(rows)}}, nil, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sum := new(big.Int).Add(x, new(big.Int).Lsh(y, 1))
		if rs, err := Drain(it); err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Kind != KindFloat || rs.Rows[0][0].Float != nearest(sum, 3) {
			t.Errorf("AVG of %d, %d, %d = %v, %v; want the nearest DOUBLE %v", a, b, b, rs, err, nearest(sum, 3))
		}
		neg := &UnaryExpr{Op: "-", X: &Literal{Val: NewInt(a)}}
		got, err := evalConst(neg, nil)
		wantInt("-("+x.String()+")", got, err, new(big.Int).Neg(x))

		isNaN := func(v Value) bool { return v.Kind == KindFloat && math.IsNaN(v.Float) }
		nums := []Value{NewInt(a), NewInt(b), NewFloat(math.Float64frombits(uint64(a))),
			NewFloat(math.Float64frombits(uint64(b))), NewFloat(float64(a)), NewBool(b&1 == 1)}
		for _, p := range nums {
			for _, q := range nums {
				want := boolInt(isNaN(q)) - boolInt(isNaN(p))
				if !isNaN(p) && !isNaN(q) {
					want = bigOf(p).Cmp(bigOf(q))
				}
				if got := Compare(p, q); got != want {
					t.Errorf("Compare(%#v, %#v) = %d, want %d", p, q, got, want)
				}
			}
		}
		n := strconv.FormatInt(a, 10)
		strs := []string{"NaN", "Inf", "-Inf", "nan", n, " " + n + " ", n + ".0", strings.Replace(n, "-", "-0", 1), n + "e0"}
		if a >= 0 {
			strs = append(strs, "0"+n)
		}
		// A numeral with a fraction: against an int or a bool by its exact
		// value, against a DOUBLE as the DOUBLE it reads as.
		half := n + ".5"
		halfRat, _ := new(big.Rat).SetString(half)
		halfFloat, _ := strconv.ParseFloat(half, 64)
		for _, str := range strs {
			sv := NewString(str)
			for _, q := range nums {
				want := strings.Compare(str, q.String())
				if _, err := strconv.ParseFloat(strings.TrimSpace(str), 64); err == nil && !strings.Contains(strings.ToLower(str), "n") {
					want = Compare(NewInt(a), q)
				}
				if got := Compare(sv, q); got != want {
					t.Errorf("Compare(%q, %#v) = %d, want %d", str, q, got, want)
				}
				if got := -Compare(q, sv); got != want {
					t.Errorf("Compare(%#v, %q) = %d, want %d", q, str, -got, -want)
				}
			}
		}
		for _, q := range nums {
			want := Compare(NewFloat(halfFloat), q)
			if q.Kind != KindFloat {
				qi, _ := q.AsInt()
				want = halfRat.Cmp(new(big.Rat).SetInt64(qi))
			}
			if got := Compare(NewString(half), q); got != want {
				t.Errorf("Compare(%q, %#v) = %d, want %d", half, q, got, want)
			}
			if got := -Compare(q, NewString(half)); got != want {
				t.Errorf("Compare(%#v, %q) = %d, want %d", q, half, -got, -want)
			}
		}
		if got, ok := NewString(n + ".0").AsInt(); !ok || got != a {
			t.Errorf("AsInt(%q) = %d, %v; want %d", n+".0", got, ok, a)
		}
	})
}
