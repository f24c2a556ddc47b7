package sqlengine

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// TestExactIntegerCompare: 2^53 and 2^53 + 1 are one float64 but two
// BIGINTs, and two timestamps a tenth of a second apart are one second.
// DISTINCT, GROUP BY, a hash join and an index seek must tell each pair
// apart, and agree with their keyless forms: a statement whose OR defeats
// the hash key and the seek, or a count of the values Compare equates.
func TestExactIntegerCompare(t *testing.T) {
	e := NewEngine("exact", DialectANSI)
	mustExec(t, e, "CREATE TABLE big (id BIGINT PRIMARY KEY, ts TIMESTAMP)")
	mustExec(t, e, "INSERT INTO big VALUES (9007199254740992, '2020-01-02 03:04:05.1'), (9007199254740993, '2020-01-02 03:04:05.2')")
	query := func(sql string) []Row {
		t.Helper()
		rs, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rs.Rows
	}
	// distinctByCompare counts the values in the first column of sql's
	// rows that Compare tells apart.
	distinctByCompare := func(sql string) int {
		var seen []Value
	next:
		for _, row := range query(sql) {
			for _, v := range seen {
				if Compare(v, row[0]) == 0 {
					continue next
				}
			}
			seen = append(seen, row[0])
		}
		return len(seen)
	}
	for _, c := range []struct {
		sql, keyless string
		want         int
	}{
		{"SELECT DISTINCT id FROM big", "", 2},
		{"SELECT a.id FROM big a JOIN big b ON a.id = b.id", "SELECT a.id FROM big a JOIN big b ON a.id = b.id OR 1 = 0", 2},
		{"SELECT id FROM big WHERE id = 9007199254740992", "SELECT id FROM big WHERE id = 9007199254740992 OR 1 = 0", 1},
		{"SELECT DISTINCT ts FROM big", "", 2},
		{"SELECT ts, COUNT(*) FROM big GROUP BY ts HAVING COUNT(*) = 1", "", 2},
		{"SELECT id, COUNT(*) FROM big GROUP BY id HAVING COUNT(*) = 1", "", 2},
	} {
		got := len(query(c.sql))
		if got != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, got, c.want)
		}
		if c.keyless != "" {
			if n := len(query(c.keyless)); n != got {
				t.Errorf("%s: %d rows, its keyless form %d", c.sql, got, n)
			}
		}
	}
	for _, col := range []string{"id", "ts"} {
		if n := distinctByCompare("SELECT " + col + " FROM big"); n != 2 {
			t.Errorf("Compare tells %d %s values apart, want 2", n, col)
		}
	}
	if rows := query("SELECT id FROM big WHERE id = 9007199254740993.0"); len(rows) != 1 || rows[0][0].Int != 1<<53 {
		t.Errorf("id = 2^53 + 1 as a DOUBLE (which is 2^53): got %v, want the row 2^53", rows)
	}
}

// Edge values FuzzKeyCodec draws from, so equal and nearly equal values
// of different kinds meet often.
var (
	keyFuzzInts = []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 - 1, -1 << 53,
		-1<<53 + 1, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	keyFuzzFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1.5, 1 << 53, 1<<53 + 2,
		-1 << 53, 1 << 63, -1 << 63, 1 << 64, math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1e300, math.NaN()}
	keyFuzzSecs  = []int64{0, 1, -1, 1 << 40}
	keyFuzzNanos = []uint32{0, 1, 1e8, 2e8, 999999999}
)

// keyFuzzValues decodes up to four values from data: each is a class
// byte and the draw that class reads (a table index, 8 raw bytes, or a
// length byte and that many bytes).
func keyFuzzValues(data []byte) []Value {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	index := func(n int) int { return int(take(1)[0]) % n }
	var vals []Value
	for len(data) > 0 && len(vals) < 4 {
		var v Value // class 8 leaves it NULL
		switch take(1)[0] % 9 {
		case 0:
			v = NewInt(keyFuzzInts[index(len(keyFuzzInts))])
		case 1:
			v = NewInt(int64(binary.LittleEndian.Uint64(take(8))))
		case 2:
			v = NewFloat(keyFuzzFloats[index(len(keyFuzzFloats))])
		case 3:
			v = NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(take(8))))
		case 4:
			v = NewBool(take(1)[0]&1 == 1)
		case 5:
			sec := keyFuzzSecs[index(len(keyFuzzSecs))]
			v = Value{Kind: KindTime, Int: sec, aux: keyFuzzNanos[index(len(keyFuzzNanos))]}
		case 6:
			v = NewString(string(take(index(4))))
		case 7:
			v = NewBytes(take(index(4)))
		}
		vals = append(vals, v)
	}
	return vals
}

// bigOf is a number other than NaN as an exact big.Float (±Inf included).
func bigOf(v Value) *big.Float {
	switch v.Kind {
	case KindFloat:
		return big.NewFloat(v.Float)
	case KindBool:
		return new(big.Float).SetInt64(int64(v.aux))
	}
	return new(big.Float).SetInt64(v.Int)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keyClass is the class within which keys must agree with Compare.
func keyClass(v Value) Kind {
	if isNumeric(v.Kind) {
		return KindInt
	}
	return v.Kind
}

// FuzzKeyCodec: within a class (numbers, strings, bytes, times, NULL), two
// values get equal hash keys exactly when Compare equates them, and
// Compare orders two numbers as math/big does, a NaN equal only to a NaN
// and before every other number; the key of a pair of values equals
// another pair's exactly when both parts' keys do, so no key spills over
// into its neighbour.
func FuzzKeyCodec(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 4, 2, 7},             // int 2^53, float 2^53
		{0, 5, 2, 7},             // int 2^53 + 1, float 2^53
		{0, 9, 2, 10},            // MaxInt64, float 2^63
		{0, 11, 2, 11},           // MinInt64, float -2^63
		{2, 0, 2, 1},             // 0, -0
		{4, 1, 0, 1, 4, 0, 2, 1}, // true, 1, false, -0
		{5, 0, 2, 5, 0, 3},       // times a tenth of a second apart
		{6, 2, 'a', 'b', 6, 1, 'c', 6, 1, 'a', 6, 2, 'b', 'c'}, // ("ab", "c") vs ("a", "bc")
		{6, 1, 0, 7, 1, 0, 6, 0, 7, 0},                         // NUL string and bytes, empty ones
		{8, 8, 3, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2, 18},         // NULLs, NaNs
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := keyFuzzValues(data)
		key := func(vs ...Value) []byte { return appendIndexKey(nil, vs...) }
		isNaN := func(v Value) bool { return v.Kind == KindFloat && math.IsNaN(v.Float) }
		for i, a := range vals {
			for _, b := range vals[i:] {
				if keyClass(a) != keyClass(b) {
					continue
				}
				if keyEq, cmpEq := bytes.Equal(key(a), key(b)), Compare(a, b) == 0; keyEq != cmpEq {
					t.Fatalf("%#v and %#v: equal keys %v, Compare equal %v", a, b, keyEq, cmpEq)
				}
				if !isNumeric(a.Kind) {
					continue
				}
				want := 0
				switch {
				case isNaN(a) || isNaN(b):
					want = boolInt(isNaN(b)) - boolInt(isNaN(a))
				default:
					want = bigOf(a).Cmp(bigOf(b))
				}
				if got := Compare(a, b); got != want {
					t.Fatalf("%#v and %#v: Compare %d, want %d", a, b, got, want)
				}
			}
		}
		if len(vals) == 4 {
			pairEq := bytes.Equal(key(vals[0], vals[1]), key(vals[2], vals[3]))
			partsEq := bytes.Equal(key(vals[0]), key(vals[2])) && bytes.Equal(key(vals[1]), key(vals[3]))
			if pairEq != partsEq {
				t.Fatalf("%v: equal pair keys %v, equal part keys %v", vals, pairEq, partsEq)
			}
		}
	})
}
