package sqlengine_test

import (
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
	"time"

	"gridrdb/internal/sqlengine"
)

// allKindsRows exercises every cell tag (0–7), including edge payloads:
// negative and extreme numbers, −0.0, a sub-second timestamp, and an empty
// string next to empty bytes.
func allKindsRows() []sqlengine.Row {
	return []sqlengine.Row{
		{
			sqlengine.Null(),
			sqlengine.NewInt(0),
			sqlengine.NewInt(-1),
			sqlengine.NewInt(math.MaxInt64),
			sqlengine.NewInt(math.MinInt64),
		},
		{
			sqlengine.NewFloat(0),
			sqlengine.NewFloat(-2.718281828),
			sqlengine.NewFloat(math.MaxFloat64),
			sqlengine.NewFloat(math.SmallestNonzeroFloat64),
			sqlengine.NewFloat(math.Inf(-1)),
		},
		{
			sqlengine.NewString(""),
			sqlengine.NewString("plain"),
			sqlengine.NewString("<&> \"esc\"\r\n\tütf✓"),
			sqlengine.NewBool(true),
			sqlengine.NewBool(false),
		},
		{
			sqlengine.NewTime(time.Date(2005, 6, 15, 12, 30, 45, 123456789, time.UTC)),
			sqlengine.NewTime(time.Unix(0, 0).UTC()),
			sqlengine.NewBytes(nil),
			sqlengine.NewBytes([]byte{0, 1, 2, 254, 255}),
			sqlengine.Null(),
		},
		{}, // empty row
		{
			sqlengine.NewFloat(math.Copysign(0, -1)),
			sqlengine.NewString(""),
			sqlengine.NewBytes([]byte{}),
			sqlengine.NewInt(-300),
		},
	}
}

// goldenFrame is AppendRowFrame(nil, allKindsRows()) as docs/WIRE.md §5
// specifies it, pinned so that no change to the codec changes the bytes a
// peer or a spill file sees.
const goldenFrame = "52010605000100010101feffffffffffffffff0101ffffffffffffffffff01050200" +
	"00000000000000029b91048b0abf05c002ffffffffffffef7f0201000000000000000200" +
	"0000000000f0ff0503000305706c61696e03133c263e2022657363220d0a09c3bc7466e2" +
	"9c9305040506eafd80ab08959aef3a06000007000705000102feff000004020000000000" +
	"0000800300070001d704"

func TestRowFrameGolden(t *testing.T) {
	if got := hex.EncodeToString(sqlengine.AppendRowFrame(nil, allKindsRows())); got != goldenFrame {
		t.Fatalf("frame bytes changed:\n got  %s\n want %s", got, goldenFrame)
	}
}

// identical reports whether two values have the same kind and payload:
// floats by their bits, times to the nanosecond.
func identical(a, b sqlengine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case sqlengine.KindInt:
		return a.Int == b.Int
	case sqlengine.KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case sqlengine.KindTime:
		return a.Time().Equal(b.Time())
	}
	return a.Bool() == b.Bool() && a.Str() == b.Str()
}

func checkRows(t *testing.T, via string, got, want []sqlengine.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", via, len(got), len(want))
	}
	for i := range want {
		checkRow(t, via, got[i], want[i])
	}
}

func checkRow(t *testing.T, via string, got, want sqlengine.Row) {
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

// TestRowFrameRoundTripAllKinds: the frame is lossless across every value
// kind, including nanosecond time precision the XML dateTime cannot carry.
func TestRowFrameRoundTripAllKinds(t *testing.T) {
	rows := allKindsRows()
	back, err := sqlengine.DecodeRowFrame(sqlengine.AppendRowFrame(nil, rows))
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, "frame", back, rows)
}

// TestRowFrameProperty: randomized round-trip over generated cells.
func TestRowFrameProperty(t *testing.T) {
	f := func(ints []int64, floats []float64, strs []string, blobs [][]byte, secs int64, nsec uint32) bool {
		row := sqlengine.Row{}
		for _, v := range ints {
			row = append(row, sqlengine.NewInt(v))
		}
		for _, v := range floats {
			row = append(row, sqlengine.NewFloat(v))
		}
		for _, v := range strs {
			row = append(row, sqlengine.NewString(v))
		}
		for _, v := range blobs {
			row = append(row, sqlengine.NewBytes(v))
		}
		row = append(row, sqlengine.NewTime(time.Unix(secs%1<<40, int64(nsec%1e9)).UTC()))
		rows := []sqlengine.Row{row, {}}
		back, err := sqlengine.DecodeRowFrame(sqlengine.AppendRowFrame(nil, rows))
		if err != nil || len(back) != len(rows) {
			return false
		}
		for i := range rows {
			if len(back[i]) != len(rows[i]) {
				return false
			}
			for j := range rows[i] {
				if !identical(back[i][j], rows[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRowFrameMalformed: truncations and garbage are loud protocol errors,
// never silent short results.
func TestRowFrameMalformed(t *testing.T) {
	frame := sqlengine.AppendRowFrame(nil, allKindsRows())
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"empty frame", nil},
		{"bad magic", []byte{'X', 1, 0}},
		{"future version", []byte{'R', 99, 0}},
		{"unknown tag", []byte{'R', 1, 1, 1, 8}},
		{"nanoseconds past 1e9", []byte{'R', 1, 1, 1, 6, 0, 0x80, 0x94, 0xeb, 0xdc, 0x03}},
		// Absurd counts are rejected before allocation, not OOM.
		{"absurd row count", []byte{'R', 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"absurd cell count", []byte{'R', 1, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}},
	} {
		if _, err := sqlengine.DecodeRowFrame(tc.frame); err == nil {
			t.Errorf("%s decoded", tc.name)
		}
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := sqlengine.DecodeRowFrame(frame[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded silently", cut)
		}
	}
}
