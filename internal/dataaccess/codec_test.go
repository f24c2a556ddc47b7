package dataaccess

import (
	"strings"
	"testing"

	"gridrdb/internal/sqlengine"
)

// boxedRows and boxedResult build the boxed interface{} form of a row
// payload — what a generic XML-RPC client library would send or hold. They
// are the reference the cell-direct wire encoders are compared against and
// the input of the boxed decoders' tests.
func boxedRows(rows []sqlengine.Row) []interface{} {
	out := make([]interface{}, len(rows))
	for i, row := range rows {
		r := make([]interface{}, len(row))
		for j, v := range row {
			switch v.Kind {
			case sqlengine.KindInt:
				r[j] = v.Int
			case sqlengine.KindFloat:
				r[j] = v.Float
			case sqlengine.KindString:
				r[j] = v.Str()
			case sqlengine.KindBool:
				r[j] = v.Bool()
			case sqlengine.KindTime:
				r[j] = v.Time()
			case sqlengine.KindBytes:
				r[j] = v.Bytes()
			}
		}
		out[i] = r
	}
	return out
}

func boxedResult(rs *sqlengine.ResultSet) map[string]interface{} {
	cols := make([]interface{}, len(rs.Columns))
	for i, c := range rs.Columns {
		cols[i] = c
	}
	return map[string]interface{}{"columns": cols, "rows": boxedRows(rs.Rows)}
}

// TestCodecRoundTrip: boxedResult / DecodeResult are inverses over every
// value kind.
func TestCodecRoundTrip(t *testing.T) {
	rs := &sqlengine.ResultSet{
		Columns: []string{"i", "f", "s", "b", "y", "n"},
		Rows: []sqlengine.Row{{
			sqlengine.NewInt(42),
			sqlengine.NewFloat(2.5),
			sqlengine.NewString("hello"),
			sqlengine.NewBool(true),
			sqlengine.NewBytes([]byte{1, 2}),
			sqlengine.Null(),
		}},
	}
	got, err := DecodeResult(boxedResult(rs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 6 || len(got.Rows) != 1 {
		t.Fatalf("round trip shape: %v", got)
	}
	if got.Rows[0][0].Int != 42 || got.Rows[0][2].Str() != "hello" || !got.Rows[0][5].IsNull() {
		t.Fatalf("round trip values: %v", got.Rows[0])
	}
}

// TestDecodeResultRejectsMalformed pins the satellite bugfix: malformed
// payloads fail loudly with a descriptive error instead of silently
// shrinking to a truncated result set (the old `cols, _ := ...` pattern).
func TestDecodeResultRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload interface{}
		wantSub string
	}{
		{"non-map wrapper", []interface{}{"x"}, "unexpected result shape"},
		{"missing columns", map[string]interface{}{"rows": []interface{}{}}, `no "columns"`},
		{"columns not a list", map[string]interface{}{"columns": "a,b", "rows": []interface{}{}}, `"columns" is string`},
		{"column not a string", map[string]interface{}{"columns": []interface{}{int64(7)}, "rows": []interface{}{}}, "column 0 is int64"},
		{"missing rows", map[string]interface{}{"columns": []interface{}{"a"}}, `no "rows"`},
		{"rows not a list", map[string]interface{}{"columns": []interface{}{"a"}, "rows": "zap"}, "rows payload is string"},
		{"row not a list", map[string]interface{}{"columns": []interface{}{"a"}, "rows": []interface{}{"zap"}}, "row 0 is string"},
		{"bad cell type", map[string]interface{}{"columns": []interface{}{"a"}, "rows": []interface{}{[]interface{}{int32(1)}}}, "cell 0 has unexpected type"},
	}
	for _, tc := range cases {
		_, err := DecodeResult(tc.payload)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestDecodeChunk covers the cursor frame codec, both directions and the
// malformed cases.
func TestDecodeChunk(t *testing.T) {
	rows := []sqlengine.Row{{sqlengine.NewInt(1)}, {sqlengine.NewInt(2)}}
	chunk, err := DecodeChunk(map[string]interface{}{"rows": boxedRows(rows), "done": true})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Rows) != 2 || !chunk.Done {
		t.Fatalf("chunk = %+v", chunk)
	}
	if chunk.Rows[1][0].Int != 2 {
		t.Fatalf("chunk rows: %v", chunk.Rows)
	}
	if _, err := DecodeChunk("nope"); err == nil {
		t.Fatal("non-map chunk decoded")
	}
	if _, err := DecodeChunk(map[string]interface{}{"rows": []interface{}{}}); err == nil {
		t.Fatal("chunk without done decoded")
	}
	if _, err := DecodeChunk(map[string]interface{}{"done": true}); err == nil {
		t.Fatal("chunk without rows decoded")
	}
}
