package sqlengine

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind enumerates the runtime types a Value may hold.
type Kind uint8

// The supported value kinds. KindNull is the zero value so that a
// zero-initialized Value is SQL NULL.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
	KindBytes
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	case KindBytes:
		return "BLOB"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL scalar: a 32-byte tagged union, passed by value.
//
//	Kind uint8 | aux uint32 | Int int64 | Float float64 | p unsafe.Pointer
//
// Int is the payload of a KindInt value and Float that of a KindFloat
// value; code outside the package reads them only under a Kind check.
// Every other payload is unexported and read through an accessor:
//   - KindBool: aux is 0 or 1 (Bool).
//   - KindTime: Int holds the unix seconds and aux the nanoseconds of a
//     UTC instant (Time); any time.Time round-trips to the nanosecond.
//   - KindString, KindBytes: p points at the immutable payload bytes and
//     aux holds their length (Str, Bytes). A payload of 4 GiB or more is
//     copied behind a string header that p points at instead.
//
// The payload pointer is private, so no caller can forge a length that
// reads past the bytes it points at, and no mutable alias of stored bytes
// leaves the package: NewBytes copies its input and Bytes returns a copy.
// Value is not comparable with ==; compare with Compare or Equal.
type Value struct {
	_     [0]func() // not comparable: == would compare payload pointers
	Kind  Kind
	aux   uint32
	Int   int64
	Float float64
	p     unsafe.Pointer
}

// bigPayload in aux marks a string or bytes payload whose length does not
// fit in aux; p then points at a string header.
const bigPayload = math.MaxUint32

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewInt wraps an int64.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat wraps a float64.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString wraps a string. The value shares the string's (immutable)
// bytes.
func NewString(v string) Value { return payloadValue(KindString, v) }

// NewBool wraps a bool.
func NewBool(v bool) Value {
	if v {
		return Value{Kind: KindBool, aux: 1}
	}
	return Value{Kind: KindBool}
}

// NewTime wraps a timestamp as its UTC instant: the location is dropped,
// the nanoseconds are kept.
func NewTime(v time.Time) Value {
	return Value{Kind: KindTime, Int: v.Unix(), aux: uint32(v.Nanosecond())}
}

// NewBytes wraps a copy of a byte slice; the caller may reuse b.
func NewBytes(b []byte) Value { return payloadValue(KindBytes, string(b)) }

func payloadValue(k Kind, s string) Value {
	switch {
	case len(s) == 0:
		return Value{Kind: k}
	case uint64(len(s)) >= bigPayload:
		h := new(string)
		*h = strings.Clone(s) // keeps s itself from escaping on every call
		return Value{Kind: k, aux: bigPayload, p: unsafe.Pointer(h)}
	}
	return Value{Kind: k, aux: uint32(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// Str returns the payload of a KindString value, or the bytes of a
// KindBytes value as a string, without copying; "" for other kinds.
func (v Value) Str() string {
	if v.Kind != KindString && v.Kind != KindBytes {
		return ""
	}
	if v.aux == bigPayload {
		return *(*string)(v.p)
	}
	return unsafe.String((*byte)(v.p), int(v.aux))
}

// Bytes returns a fresh copy of a KindBytes payload; nil for other kinds.
func (v Value) Bytes() []byte {
	if v.Kind != KindBytes {
		return nil
	}
	return []byte(v.Str())
}

// Bool returns the payload of a KindBool value; false for other kinds.
func (v Value) Bool() bool { return v.Kind == KindBool && v.aux != 0 }

// Time returns the UTC instant of a KindTime value; the zero time for
// other kinds.
func (v Value) Time() time.Time {
	if v.Kind != KindTime {
		return time.Time{}
	}
	return time.Unix(v.Int, int64(v.aux)).UTC()
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for display and for result serialization.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str()
	case KindBool:
		if v.Bool() {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return v.Time().Format("2006-01-02 15:04:05")
	case KindBytes:
		return v.Str()
	}
	return "?"
}

// SQLLiteral renders the value as a literal that the engine's parser can
// re-read. Strings are single-quoted with quote doubling.
func (v Value) SQLLiteral() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindString, KindBytes:
		return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
	case KindTime:
		return "'" + v.Time().Format("2006-01-02 15:04:05") + "'"
	default:
		return v.String()
	}
}

// AsFloat coerces numeric-ish values to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	case KindBool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case KindString:
		return numeral(v.Str())
	}
	return 0, false
}

// numeral parses a string as a number. Only a finite value counts: 'NaN',
// 'Inf' and a numeral past the float64 range are text, like 'abc'.
func numeral(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// AsInt coerces numeric-ish values to int64.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt:
		return v.Int, true
	case KindFloat:
		return int64(v.Float), true
	case KindBool:
		if v.Bool() {
			return 1, true
		}
		return 0, true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.Str()), 10, 64)
		if err != nil {
			f, ok := numeral(v.Str())
			return int64(f), ok
		}
		return i, true
	}
	return 0, false
}

// AsBool coerces to a boolean using SQL-ish truthiness.
func (v Value) AsBool() (bool, bool) {
	switch v.Kind {
	case KindBool:
		return v.Bool(), true
	case KindInt:
		return v.Int != 0, true
	case KindFloat:
		return v.Float != 0, true
	case KindString:
		switch strings.ToLower(strings.TrimSpace(v.Str())) {
		case "true", "t", "1", "yes":
			return true, true
		case "false", "f", "0", "no", "":
			return false, true
		}
		return false, false
	}
	return false, false
}

// Compare orders two values. NULL sorts before everything and equals only
// NULL (three-valued logic is handled by the expression evaluator, which
// checks IsNull before calling Compare). Numeric kinds compare numerically
// across int/float/bool, exactly (compareNumbers); otherwise values compare
// within their kind, with a best-effort string/number coercion for mixed
// comparisons.
func Compare(a, b Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) {
		return compareNumbers(a, b)
	}
	if a.Kind == KindString && isNumeric(b.Kind) {
		if af, ok := a.AsFloat(); ok {
			bf, _ := b.AsFloat()
			return compareFloat(af, bf)
		}
	}
	if isNumeric(a.Kind) && b.Kind == KindString {
		if bf, ok := b.AsFloat(); ok {
			af, _ := a.AsFloat()
			return compareFloat(af, bf)
		}
	}
	if a.Kind == KindTime || b.Kind == KindTime {
		at, aok := a.asTime()
		bt, bok := b.asTime()
		if aok && bok {
			switch {
			case at.Before(bt):
				return -1
			case at.After(bt):
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(a.String(), b.String())
}

// compareNumbers compares two numeric values exactly, as their hash keys
// (keyValue) see them: a bool, or a float that is an integer in the int64
// range, compares as that int; two ints compare as int64.
func compareNumbers(a, b Value) int {
	if a.Kind == KindFloat && b.Kind == KindFloat {
		return compareFloat(a.Float, b.Float)
	}
	a, b = keyValue(a), keyValue(b)
	switch {
	case a.Kind == KindFloat:
		return compareFloatInt(a.Float, b.Int)
	case b.Kind == KindFloat:
		return -compareFloatInt(b.Float, a.Int)
	}
	return cmp.Compare(a.Int, b.Int)
}

// compareFloatInt compares with i a float f that is no integer in the
// int64 range: a fraction, or a value beyond that range. float64(i) never
// equals f then, and rounding keeps its side of f, but at 2^63, which
// rounding may reach from below. A NaN equals every number, as in
// compareFloat.
func compareFloatInt(f float64, i int64) int {
	if f >= 1<<63 {
		return 1
	}
	return compareFloat(f, float64(i))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func isNumeric(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

func (v Value) asTime() (time.Time, bool) {
	switch v.Kind {
	case KindTime:
		return v.Time(), true
	case KindString:
		for _, layout := range []string{
			"2006-01-02 15:04:05", "2006-01-02T15:04:05Z07:00", "2006-01-02",
		} {
			if t, err := time.Parse(layout, strings.TrimSpace(v.Str())); err == nil {
				return t, true
			}
		}
	}
	return time.Time{}, false
}

// Equal reports whether two non-NULL values compare equal; NULL never
// equals anything, including NULL (SQL semantics).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Arith applies a binary arithmetic operator (+ - * / %) with SQL NULL
// propagation. Integer op integer stays integer except for / which promotes
// to float when the division is inexact (matching common RDBMS behaviour is
// vendor specific; we follow Oracle and promote). An integer result that
// does not fit in int64 is an error, never a wrapped value (MySQL's BIGINT
// rule).
func Arith(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if op == "+" && (a.Kind == KindString || b.Kind == KindString) {
		// MS-SQL style string concatenation with +.
		if _, aok := a.AsFloat(); !aok {
			return NewString(a.String() + b.String()), nil
		}
		if _, bok := b.AsFloat(); !bok {
			return NewString(a.String() + b.String()), nil
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return Null(), fmt.Errorf("sqlengine: non-numeric operand for %q: %s %s", op, a.Kind, b.Kind)
	}
	bothInt := a.Kind == KindInt && b.Kind == KindInt
	x, y := a.Int, b.Int
	switch op {
	case "+":
		if bothInt {
			if s := x + y; (x^s)&(y^s) >= 0 {
				return NewInt(s), nil
			}
			return Null(), intOutOfRange(x, op, y)
		}
		return NewFloat(af + bf), nil
	case "-":
		if bothInt {
			if d := x - y; (x^y)&(x^d) >= 0 {
				return NewInt(d), nil
			}
			return Null(), intOutOfRange(x, op, y)
		}
		return NewFloat(af - bf), nil
	case "*":
		if bothInt {
			if p := x * y; x == 0 || p/x == y && !(x == -1 && y == math.MinInt64) {
				return NewInt(p), nil
			}
			return Null(), intOutOfRange(x, op, y)
		}
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Null(), fmt.Errorf("sqlengine: division by zero")
		}
		if bothInt && x%y == 0 {
			if x == math.MinInt64 && y == -1 {
				return Null(), intOutOfRange(x, op, y)
			}
			return NewInt(x / y), nil
		}
		return NewFloat(af / bf), nil
	case "%":
		if bothInt {
			if b.Int == 0 {
				return Null(), fmt.Errorf("sqlengine: division by zero")
			}
			return NewInt(a.Int % b.Int), nil
		}
		if bf == 0 {
			return Null(), fmt.Errorf("sqlengine: division by zero")
		}
		return NewFloat(math.Mod(af, bf)), nil
	}
	return Null(), fmt.Errorf("sqlengine: unknown arithmetic operator %q", op)
}

// intOutOfRange is the error of an integer operation whose exact result
// does not fit in int64.
func intOutOfRange(x int64, op string, y int64) error {
	return fmt.Errorf("sqlengine: BIGINT value is out of range in %d %s %d", x, op, y)
}

// ColumnType describes a declared column type after dialect normalization.
type ColumnType struct {
	Kind Kind
	// Size is the declared length for VARCHAR(n)/CHAR(n); 0 means
	// unbounded. It is advisory: the engine stores strings unchecked but
	// reports Size through metadata so dialect round-trips preserve DDL.
	Size int
}

// Coerce converts v to the column's kind for storage. Lossless where
// possible; incompatible conversions return an error.
func (ct ColumnType) Coerce(v Value) (Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch ct.Kind {
	case KindInt:
		if i, ok := v.AsInt(); ok {
			return NewInt(i), nil
		}
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return NewFloat(f), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindBool:
		if b, ok := v.AsBool(); ok {
			return NewBool(b), nil
		}
	case KindTime:
		if t, ok := v.asTime(); ok {
			return NewTime(t), nil
		}
	case KindBytes:
		if v.Kind == KindBytes {
			return v, nil
		}
		return payloadValue(KindBytes, v.String()), nil
	case KindNull:
		return v, nil
	}
	return Null(), fmt.Errorf("sqlengine: cannot coerce %s value %q to %s", v.Kind, v.String(), ct.Kind)
}

// Row is one tuple of values.
type Row []Value

// Clone returns a deep-enough copy of the row (Values are value types; the
// backing slice is fresh).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
