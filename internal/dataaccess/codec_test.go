package dataaccess

import (
	"bytes"
	"strings"
	"testing"

	"gridrdb/internal/clarens"
	"gridrdb/internal/sqlengine"
)

// boxedRows and boxedResult build the boxed interface{} form of a row
// payload — what a generic XML-RPC client library would send or hold. They
// are the reference the cell-direct wire encoders are compared against and
// what the streaming decoders must read as a generic client sent it.
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

// Streaming decoders as clarens.DecodeResponse takes them.
func decodeQueryResult(d *clarens.Decoder) (interface{}, error) { return DecodeQueryResultFrom(d) }
func decodeResult(d *clarens.Decoder) (interface{}, error)      { return DecodeResultFrom(d) }
func decodeChunk(d *clarens.Decoder) (interface{}, error)       { return DecodeChunkFrom(d) }

// decodeValue feeds one XML-RPC <value> body, wrapped in a
// methodResponse, to a streaming decoder.
func decodeValue(value string, decode func(*clarens.Decoder) (interface{}, error)) (interface{}, error) {
	doc := `<?xml version="1.0"?><methodResponse><params><param><value>` + value +
		`</value></param></params></methodResponse>`
	return clarens.DecodeResponse(strings.NewReader(doc), decode)
}

// member and list build XML-RPC struct members and arrays for the
// malformed-payload cases.
func member(name, value string) string {
	return "<member><name>" + name + "</name><value>" + value + "</value></member>"
}

func list(values ...string) string {
	var sb strings.Builder
	sb.WriteString("<array><data>")
	for _, v := range values {
		sb.WriteString("<value>" + v + "</value>")
	}
	sb.WriteString("</data></array>")
	return sb.String()
}

// TestCodecRoundTrip: a result a generic client library renders from the
// boxed value family — route and servers included — decodes back over
// every value kind.
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
	boxed := boxedResult(rs)
	boxed["route"], boxed["servers"] = string(RouteMixed), int64(2)
	doc, err := clarens.MarshalResponse(boxed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := clarens.DecodeResponse(bytes.NewReader(doc), decodeQueryResult)
	if err != nil {
		t.Fatal(err)
	}
	got := res.(*QueryResult)
	if len(got.Columns) != 6 || len(got.Rows) != 1 {
		t.Fatalf("round trip shape: %v", got.ResultSet)
	}
	if !identicalRows(got.Rows, rs.Rows) {
		t.Fatalf("round trip values: %v, want %v", got.Rows, rs.Rows)
	}
	if got.Route != RouteMixed || got.Servers != 2 {
		t.Fatalf("route %q, servers %d; want mixed, 2", got.Route, got.Servers)
	}
}

// TestDecodeResultRejectsMalformed: malformed payloads fail loudly with a
// descriptive error instead of silently shrinking to a truncated result
// set, on both result decoders — a ragged row included, which operators
// indexing cells by column position must never see.
func TestDecodeResultRejectsMalformed(t *testing.T) {
	cols := member("columns", list("<string>a</string>"))
	emptyRows := member("rows", list())
	cases := []struct {
		name    string
		payload string
		wantSub string
	}{
		{"non-map wrapper", list("<string>x</string>"), "expected <struct>"},
		{"missing columns", "<struct>" + emptyRows + "</struct>", `no "columns"`},
		{"columns not a list", "<struct>" + member("columns", "<string>a,b</string>") + emptyRows + "</struct>", "expected <array>"},
		{"column not a string", "<struct>" + member("columns", list("<int>7</int>")) + emptyRows + "</struct>", "column 0 is not a string"},
		{"missing rows", "<struct>" + cols + "</struct>", `no "rows"`},
		{"rows not a list", "<struct>" + cols + member("rows", "<string>zap</string>") + "</struct>", "expected <array>"},
		{"row not a list", "<struct>" + cols + member("rows", list("<string>zap</string>")) + "</struct>", "expected <array>"},
		{"bad cell type", "<struct>" + cols + member("rows", list(list("<i2>1</i2>"))) + "</struct>", "unknown XML-RPC type"},
		{"nested cell", "<struct>" + cols + member("rows", list(list(list()))) + "</struct>", "expected scalar value"},
		{"ragged row", "<struct>" + member("columns", list("<string>a</string>", "<string>b</string>")) +
			member("rows", list(list("<int>1</int>"))) + "</struct>", "row 0 has 1 cells for 2 columns"},
		{"rowsb not base64", "<struct>" + cols + member("rowsb", "<string>zap</string>") + "</struct>", `"rowsb" is not a base64 payload`},
		{"route not a string", "<struct>" + cols + emptyRows + member("route", "<int>1</int>") + "</struct>", `"route" is not a string`},
		{"servers not an int", "<struct>" + cols + emptyRows + member("servers", "<string>2</string>") + "</struct>", `"servers" is not an int`},
	}
	for _, decode := range []func(*clarens.Decoder) (interface{}, error){decodeQueryResult, decodeResult} {
		for _, tc := range cases {
			_, err := decodeValue(tc.payload, decode)
			if err == nil {
				t.Errorf("%s: decoded without error", tc.name)
				continue
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
			}
		}
	}
}

// TestDecodeChunk covers the cursor frame codec, both directions and the
// malformed cases.
func TestDecodeChunk(t *testing.T) {
	rows := []sqlengine.Row{{sqlengine.NewInt(1)}, {sqlengine.NewInt(2)}}
	doc, err := clarens.MarshalResponse(map[string]interface{}{"rows": boxedRows(rows), "done": true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := clarens.DecodeResponse(bytes.NewReader(doc), decodeChunk)
	if err != nil {
		t.Fatal(err)
	}
	chunk := res.(*Chunk)
	if len(chunk.Rows) != 2 || !chunk.Done {
		t.Fatalf("chunk = %+v", chunk)
	}
	if chunk.Rows[1][0].Int != 2 {
		t.Fatalf("chunk rows: %v", chunk.Rows)
	}
	for _, tc := range []struct{ name, payload, wantSub string }{
		{"non-map chunk", "<string>nope</string>", "expected <struct>"},
		{"chunk without done", "<struct>" + member("rows", list()) + "</struct>", `no "done"`},
		{"chunk without rows", "<struct>" + member("done", "<boolean>1</boolean>") + "</struct>", `no "rows"`},
		{"done not a bool", "<struct>" + member("rows", list()) + member("done", "<int>1</int>") + "</struct>", `"done" is not a bool`},
		{"row not a list", "<struct>" + member("rows", list("<int>1</int>")) + member("done", "<boolean>1</boolean>") + "</struct>", "expected <array>"},
	} {
		if _, err := decodeValue(tc.payload, decodeChunk); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantSub)
		}
	}
}
