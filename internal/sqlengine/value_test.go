package sqlengine

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.0), 0},
		{NewFloat(1.5), NewInt(1), 1},
		{NewString("a"), NewString("b"), -1},
		{NewString("10"), NewInt(9), 1}, // numeric coercion
		{NewBool(true), NewBool(false), 1},
		{Null(), NewInt(0), -1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and reflexive over ints and floats.
func TestCompareProperties(t *testing.T) {
	anti := func(a, b int64) bool {
		return Compare(NewInt(a), NewInt(b)) == -Compare(NewInt(b), NewInt(a))
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
	refl := func(a float64) bool {
		if math.IsNaN(a) {
			return true
		}
		return Compare(NewFloat(a), NewFloat(a)) == 0
	}
	if err := quick.Check(refl, nil); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c int64) bool {
		va, vb, vc := NewInt(a), NewInt(b), NewInt(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Error(err)
	}
}

// Property: SQLLiteral round-trips through the parser for strings and ints.
func TestSQLLiteralRoundTrip(t *testing.T) {
	e := NewEngine("rt", DialectANSI)
	mustExec(t, e, `CREATE TABLE t (s VARCHAR(1024), i INTEGER, f DOUBLE)`)
	prop := func(s string, i int64, f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		// Strip characters our lexer treats as line noise inside strings is
		// unnecessary: only ' needs escaping, which SQLLiteral does.
		_, err := e.Exec(`DELETE FROM t`)
		if err != nil {
			return false
		}
		sql := `INSERT INTO t VALUES (` + NewString(s).SQLLiteral() + `, ` +
			NewInt(i).SQLLiteral() + `, ` + NewFloat(f).SQLLiteral() + `)`
		if _, err := e.Exec(sql); err != nil {
			t.Logf("insert %q: %v", sql, err)
			return false
		}
		rs, err := e.Query(`SELECT s, i, f FROM t`)
		if err != nil || len(rs.Rows) != 1 {
			return false
		}
		row := rs.Rows[0]
		return row[0].Str() == s && row[1].Int == i && row[2].Float == f
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: LIKE with a literal pattern equal to the string (no wildcards)
// always matches, and '%' matches everything.
func TestLikeProperties(t *testing.T) {
	selfMatch := func(s string) bool {
		// Wildcard characters in s change semantics; skip those inputs.
		for _, r := range s {
			if r == '%' || r == '_' {
				return true
			}
		}
		return likeMatch(s, s)
	}
	if err := quick.Check(selfMatch, nil); err != nil {
		t.Error(err)
	}
	all := func(s string) bool { return likeMatch("%", s) }
	if err := quick.Check(all, nil); err != nil {
		t.Error(err)
	}
	prefix := func(s string) bool {
		for _, r := range s {
			if r == '%' || r == '_' {
				return true
			}
		}
		return likeMatch(s+"%", s) && likeMatch("%"+s, s) && likeMatch(s+"%", s+"suffix")
	}
	if err := quick.Check(prefix, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeCases(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "ABC", true}, // case-insensitive
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "abbc", false},
		{"%b%", "abc", true},
		{"", "", true},
		{"%", "", true},
		{"_", "", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   string
		a, b Value
		want Value
	}{
		{"+", NewInt(2), NewInt(3), NewInt(5)},
		{"-", NewInt(2), NewInt(3), NewInt(-1)},
		{"*", NewInt(4), NewFloat(0.5), NewFloat(2)},
		{"/", NewInt(6), NewInt(3), NewInt(2)},
		{"/", NewInt(7), NewInt(2), NewFloat(3.5)}, // inexact promotes
		{"%", NewInt(7), NewInt(3), NewInt(1)},
		{"+", NewString("a"), NewString("b"), NewString("ab")}, // MS-SQL style
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Errorf("%v %s %v: %v", c.a, c.op, c.b, err)
			continue
		}
		if got.Kind != c.want.Kind || Compare(got, c.want) != 0 {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if _, err := Arith("/", NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero not reported")
	}
	// NULL propagation
	v, err := Arith("+", Null(), NewInt(1))
	if err != nil || !v.IsNull() {
		t.Errorf("NULL + 1 = %v, %v", v, err)
	}
}

func TestCoerce(t *testing.T) {
	intCol := ColumnType{Kind: KindInt}
	if v, err := intCol.Coerce(NewString("42")); err != nil || v.Int != 42 {
		t.Errorf("coerce '42' to int: %v %v", v, err)
	}
	if _, err := intCol.Coerce(NewString("not-a-number")); err == nil {
		t.Error("bad int coercion accepted")
	}
	strCol := ColumnType{Kind: KindString}
	if v, err := strCol.Coerce(NewFloat(1.5)); err != nil || v.Str() != "1.5" {
		t.Errorf("coerce 1.5 to string: %v %v", v, err)
	}
	timeCol := ColumnType{Kind: KindTime}
	if v, err := timeCol.Coerce(NewString("2005-06-15 12:00:00")); err != nil || v.Kind != KindTime {
		t.Errorf("coerce timestamp: %v %v", v, err)
	}
	boolCol := ColumnType{Kind: KindBool}
	if v, err := boolCol.Coerce(NewInt(1)); err != nil || !v.Bool() {
		t.Errorf("coerce 1 to bool: %v %v", v, err)
	}
	// NULL passes through any column type.
	if v, err := intCol.Coerce(Null()); err != nil || !v.IsNull() {
		t.Errorf("coerce NULL: %v %v", v, err)
	}
}

func TestValueStringForms(t *testing.T) {
	if NewBool(true).String() != "TRUE" || NewBool(false).String() != "FALSE" {
		t.Error("bool rendering")
	}
	if Null().String() != "NULL" || Null().SQLLiteral() != "NULL" {
		t.Error("null rendering")
	}
	if NewString("o'brien").SQLLiteral() != "'o''brien'" {
		t.Errorf("quote escaping: %s", NewString("o'brien").SQLLiteral())
	}
}

// TestValueOf: the one conversion from a Go value (a database/sql
// argument, an XML-RPC parameter, a scanned column) covers every kind and
// rejects any other type.
func TestValueOf(t *testing.T) {
	when := time.Date(2005, 6, 15, 12, 30, 45, 0, time.UTC)
	for _, tc := range []struct {
		in   interface{}
		want Value
	}{
		{nil, Null()},
		{42, NewInt(42)},
		{int64(-7), NewInt(-7)},
		{2.5, NewFloat(2.5)},
		{"s", NewString("s")},
		{true, NewBool(true)},
		{[]byte{1, 2}, NewBytes([]byte{1, 2})},
		{when, NewTime(when)},
		{NewString("v"), NewString("v")},
	} {
		got, err := ValueOf(tc.in)
		if err != nil || got.Kind != tc.want.Kind || Compare(got, tc.want) != 0 {
			t.Errorf("ValueOf(%#v) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ValueOf(struct{}{}); err == nil {
		t.Error("struct accepted")
	}
}
