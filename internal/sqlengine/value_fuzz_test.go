package sqlengine

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"
	"unsafe"
)

// Timestamps the engine promises to keep exactly: 0001-01-01 to
// 9999-12-31T23:59:59.999999999 UTC.
var (
	minTime = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	maxTime = time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
)

// genValue builds a value of a generated kind from generated payloads;
// sec is folded into the supported time range.
func genValue(kind uint8, i int64, f float64, s string, b []byte, sec int64, nsec uint32) Value {
	switch Kind(kind % 7) {
	case KindInt:
		return NewInt(i)
	case KindFloat:
		return NewFloat(f)
	case KindString:
		return NewString(s)
	case KindBool:
		return NewBool(i&1 == 1)
	case KindTime:
		span := maxTime.Unix() - minTime.Unix() + 1
		sec = minTime.Unix() + (sec%span+span)%span
		return NewTime(time.Unix(sec, int64(nsec%1e9)))
	case KindBytes:
		return NewBytes(b)
	}
	return Null()
}

// identical reports whether two values have the same kind and payload:
// floats by their bits, times to the nanosecond.
func identical(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case KindTime:
		return a.Time().Equal(b.Time())
	}
	return a.Bool() == b.Bool() && a.Str() == b.Str()
}

func addValueSeeds(f *testing.F) {
	f.Add(uint8(KindNull), int64(0), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindInt), int64(math.MinInt64), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindInt), int64(math.MaxInt64), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindFloat), int64(0), math.Copysign(0, -1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindFloat), int64(0), math.NaN(), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindFloat), int64(0), math.Inf(1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindFloat), int64(0), math.Inf(-1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindString), int64(0), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindString), int64(0), 0.0, "héllo\x00'world'", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindString), int64(0), 0.0, "\xff\xfe invalid utf-8", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindBool), int64(1), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(KindBytes), int64(0), 0.0, "", []byte{}, int64(0), uint32(0))
	f.Add(uint8(KindBytes), int64(0), 0.0, "", []byte{0xff, 0, 0xc3, 0x28}, int64(0), uint32(0))
	f.Add(uint8(KindTime), int64(0), 0.0, "", []byte(nil), minTime.Unix(), uint32(0))
	f.Add(uint8(KindTime), int64(0), 0.0, "", []byte(nil), maxTime.Unix(), uint32(999999999))
	f.Add(uint8(KindTime), int64(0), 0.0, "", []byte(nil), int64(-1), uint32(1))
}

// FuzzValueRoundTrip checks that every generated value survives each
// encoding the engine owns exactly: constructor to accessor, the row
// codec (spill files and the gob transport), and a persisted snapshot.
func FuzzValueRoundTrip(f *testing.F) {
	addValueSeeds(f)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string, b []byte, sec int64, nsec uint32) {
		v := genValue(kind, i, fl, s, b, sec, nsec)

		// Constructor -> accessor.
		switch v.Kind {
		case KindInt:
			if v.Int != i {
				t.Fatalf("Int = %d, want %d", v.Int, i)
			}
		case KindFloat:
			if math.Float64bits(v.Float) != math.Float64bits(fl) {
				t.Fatalf("Float bits = %x, want %x", math.Float64bits(v.Float), math.Float64bits(fl))
			}
		case KindString:
			if v.Str() != s {
				t.Fatalf("Str = %q, want %q", v.Str(), s)
			}
		case KindBool:
			if v.Bool() != (i&1 == 1) {
				t.Fatalf("Bool = %v, want %v", v.Bool(), i&1 == 1)
			}
		case KindTime:
			got := v.Time()
			if got.Location() != time.UTC || got.Before(minTime) || got.After(maxTime) || got.Nanosecond() != int(nsec%1e9) {
				t.Fatalf("Time = %v, want a UTC time in range with %d ns", got, nsec%1e9)
			}
			if !identical(NewTime(got.In(time.FixedZone("x", 3600))), v) {
				t.Fatalf("NewTime is not location-independent for %v", got)
			}
		case KindBytes:
			if got := v.Bytes(); !bytes.Equal(got, b) {
				t.Fatalf("Bytes = %x, want %x", got, b)
			}
			if len(b) > 0 {
				// The value owns its copy: the caller's slice and the
				// slice Bytes returns are both free to change.
				b0 := b[0]
				b[0]++
				v.Bytes()[0]++
				if v.Bytes()[0] != b0 {
					t.Fatal("a caller's mutation reached the stored bytes")
				}
				b[0] = b0
			}
		}
		row := Row{NewInt(7), v, Null(), v}

		// Spill file.
		sd, err := newSpillDir(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sd.remove()
		sw, err := sd.newWriter("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.writeRow(row); err != nil {
			t.Fatal(err)
		}
		if err := sw.finish(); err != nil {
			t.Fatal(err)
		}
		sr, err := openSpill(sw.path)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.close()
		back, err := sr.readRow()
		if err != nil {
			t.Fatal(err)
		}
		checkRow(t, "spill", back, row)

		// Gob, as the wire transport sends rows and parameters.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(struct {
			Params []Value
			Rows   []Row
		}{row, []Row{row, {}}}); err != nil {
			t.Fatal(err)
		}
		var msg struct {
			Params []Value
			Rows   []Row
		}
		if err := gob.NewDecoder(&buf).Decode(&msg); err != nil {
			t.Fatal(err)
		}
		if len(msg.Rows) != 2 || len(msg.Rows[1]) != 0 {
			t.Fatalf("gob rows = %v", msg.Rows)
		}
		checkRow(t, "gob params", msg.Params, row)
		checkRow(t, "gob rows", msg.Rows[0], row)

		// Snapshot.
		if v.Kind == KindNull {
			return
		}
		e := NewEngine("fuzz", DialectANSI)
		if _, err := e.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v " + v.Kind.String() + ")"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec("INSERT INTO t VALUES (1, ?)", v); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		e2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := e2.Query("SELECT v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("snapshot rows = %d", len(rs.Rows))
		}
		checkRow(t, "snapshot", rs.Rows[0], Row{v})
	})
}

func checkRow(t *testing.T, via string, got, want Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", via, len(got), len(want))
	}
	for j := range want {
		if !identical(got[j], want[j]) {
			t.Fatalf("%s: cell %d = %s %v, want %s %v", via, j, got[j].Kind, got[j], want[j].Kind, want[j])
		}
	}
}

func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}
