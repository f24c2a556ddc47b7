package sqlengine_test

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"
	"unsafe"

	"gridrdb/internal/sqlengine"
	"gridrdb/internal/wire"
)

// Timestamps the engine promises to keep exactly: 0001-01-01 to
// 9999-12-31T23:59:59.999999999 UTC.
var (
	minTime = time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	maxTime = time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)
)

// genValue builds a value of a generated kind from generated payloads;
// sec is folded into the supported time range.
func genValue(kind uint8, i int64, f float64, s string, b []byte, sec int64, nsec uint32) sqlengine.Value {
	switch sqlengine.Kind(kind % 7) {
	case sqlengine.KindInt:
		return sqlengine.NewInt(i)
	case sqlengine.KindFloat:
		return sqlengine.NewFloat(f)
	case sqlengine.KindString:
		return sqlengine.NewString(s)
	case sqlengine.KindBool:
		return sqlengine.NewBool(i&1 == 1)
	case sqlengine.KindTime:
		span := maxTime.Unix() - minTime.Unix() + 1
		sec = minTime.Unix() + (sec%span+span)%span
		return sqlengine.NewTime(time.Unix(sec, int64(nsec%1e9)))
	case sqlengine.KindBytes:
		return sqlengine.NewBytes(b)
	}
	return sqlengine.Null()
}

func addValueSeeds(f *testing.F) {
	f.Add(uint8(sqlengine.KindNull), int64(0), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindInt), int64(math.MinInt64), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindInt), int64(math.MaxInt64), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindFloat), int64(0), math.Copysign(0, -1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindFloat), int64(0), math.NaN(), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindFloat), int64(0), math.Inf(1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindFloat), int64(0), math.Inf(-1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindString), int64(0), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindString), int64(0), 0.0, "héllo\x00'world'", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindString), int64(0), 0.0, "\xff\xfe invalid utf-8", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindBool), int64(1), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindBytes), int64(0), 0.0, "", []byte{}, int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindBytes), int64(0), 0.0, "", []byte{0xff, 0, 0xc3, 0x28}, int64(0), uint32(0))
	f.Add(uint8(sqlengine.KindTime), int64(0), 0.0, "", []byte(nil), minTime.Unix(), uint32(0))
	f.Add(uint8(sqlengine.KindTime), int64(0), 0.0, "", []byte(nil), maxTime.Unix(), uint32(999999999))
	f.Add(uint8(sqlengine.KindTime), int64(0), 0.0, "", []byte(nil), int64(-1), uint32(1))
}

// FuzzValueRoundTrip checks that every generated value survives each
// encoding the engine owns exactly: constructor to accessor, the row frame
// (a spill file, and a gob-encoded wire request and response as the tcp://
// transport sends them), and a persisted snapshot.
func FuzzValueRoundTrip(f *testing.F) {
	addValueSeeds(f)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string, b []byte, sec int64, nsec uint32) {
		v := genValue(kind, i, fl, s, b, sec, nsec)

		// Constructor -> accessor.
		switch v.Kind {
		case sqlengine.KindInt:
			if v.Int != i {
				t.Fatalf("Int = %d, want %d", v.Int, i)
			}
		case sqlengine.KindFloat:
			if math.Float64bits(v.Float) != math.Float64bits(fl) {
				t.Fatalf("Float bits = %x, want %x", math.Float64bits(v.Float), math.Float64bits(fl))
			}
		case sqlengine.KindString:
			if v.Str() != s {
				t.Fatalf("Str = %q, want %q", v.Str(), s)
			}
		case sqlengine.KindBool:
			if v.Bool() != (i&1 == 1) {
				t.Fatalf("Bool = %v, want %v", v.Bool(), i&1 == 1)
			}
		case sqlengine.KindTime:
			got := v.Time()
			if got.Location() != time.UTC || got.Before(minTime) || got.After(maxTime) || got.Nanosecond() != int(nsec%1e9) {
				t.Fatalf("Time = %v, want a UTC time in range with %d ns", got, nsec%1e9)
			}
			if !identical(sqlengine.NewTime(got.In(time.FixedZone("x", 3600))), v) {
				t.Fatalf("NewTime is not location-independent for %v", got)
			}
		case sqlengine.KindBytes:
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
		row := sqlengine.Row{sqlengine.NewInt(7), v, sqlengine.Null(), v}

		// Spill file.
		back, err := sqlengine.SpillRoundTrip(dir, row)
		if err != nil {
			t.Fatal(err)
		}
		checkRow(t, "spill", back, row)

		// The tcp:// transport: a gob-encoded wire request carrying row as
		// its parameter frame and a response carrying it as a result frame.
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(wire.Request{Op: "query", Params: sqlengine.AppendRowFrame(nil, []sqlengine.Row{row})}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(wire.Response{Rows: sqlengine.AppendRowFrame(nil, []sqlengine.Row{row, {}})}); err != nil {
			t.Fatal(err)
		}
		dec := gob.NewDecoder(&buf)
		var req wire.Request
		var resp wire.Response
		if err := dec.Decode(&req); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		params, err := sqlengine.DecodeRowFrame(req.Params)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, "wire params", params, []sqlengine.Row{row})
		rows, err := sqlengine.DecodeRowFrame(resp.Rows)
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, "wire rows", rows, []sqlengine.Row{row, {}})

		// Snapshot.
		if v.Kind == sqlengine.KindNull {
			return
		}
		e := sqlengine.NewEngine("fuzz", sqlengine.DialectANSI)
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
		e2, err := sqlengine.Load(&buf)
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
		checkRow(t, "snapshot", rs.Rows[0], sqlengine.Row{v})
	})
}

func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(sqlengine.Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}
