package dataaccess

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"gridrdb/internal/clarens"
	"gridrdb/internal/sqlengine"
	"gridrdb/internal/wire"
)

// genCell builds a cell of a generated kind from generated payloads, with
// times folded into 0001-01-01 .. 9999-12-31T23:59:59.999999999 UTC.
func genCell(kind uint8, i int64, f float64, s string, b []byte, sec int64, nsec uint32) sqlengine.Value {
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
		lo := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
		span := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix() - lo
		return sqlengine.NewTime(time.Unix(lo+(sec%span+span)%span, int64(nsec%1e9)))
	case sqlengine.KindBytes:
		return sqlengine.NewBytes(b)
	}
	return sqlengine.Null()
}

// overXML is what an XML-RPC hop makes of v: dateTime carries whole
// seconds, XML text cannot carry invalid UTF-8 or non-XML characters
// (each becomes U+FFFD), and any NaN parses back as the canonical NaN.
func overXML(v sqlengine.Value) sqlengine.Value {
	switch v.Kind {
	case sqlengine.KindTime:
		return sqlengine.NewTime(time.Unix(v.Time().Unix(), 0))
	case sqlengine.KindString:
		return sqlengine.NewString(strings.Map(func(r rune) rune {
			if r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
				r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF {
				return r
			}
			return 0xFFFD
		}, v.Str()))
	case sqlengine.KindFloat:
		if math.IsNaN(v.Float) {
			return sqlengine.NewFloat(math.NaN())
		}
	}
	return v
}

// FuzzRowFrame sends generated rows over every hop a row takes between
// servers and clients: the binary row frame (whole results and cursor
// chunks), the XML-RPC result and chunk documents, and the gob frames of
// the tcp:// member transport. It also feeds the fuzzed bytes to the
// binary frame decoder as a frame, which must fail cleanly or decode to
// rows that re-encode to a frame decoding the same.
func FuzzRowFrame(f *testing.F) {
	f.Add(uint8(0), int64(0), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(1), int64(math.MinInt64), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(2), int64(0), math.Copysign(0, -1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(2), int64(0), math.NaN(), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(2), int64(0), math.Inf(1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(2), int64(0), math.Inf(-1), "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(3), int64(0), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(3), int64(0), 0.0, "a<&>\r\n\x00\xff\xfe\uFFFD", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(4), int64(1), 0.0, "", []byte(nil), int64(0), uint32(0))
	f.Add(uint8(5), int64(0), 0.0, "", []byte(nil), int64(-62135596800), uint32(0))
	f.Add(uint8(5), int64(0), 0.0, "", []byte(nil), int64(253402300799), uint32(999999999))
	f.Add(uint8(6), int64(0), 0.0, "", []byte{}, int64(0), uint32(0))
	f.Add(uint8(6), int64(0), 0.0, "", []byte{0xff, 0xc3, 0x28, 0}, int64(0), uint32(0))
	f.Add(uint8(3), int64(0), 0.0, "", AppendRowsBinary(nil, allKindsRows()), int64(0), uint32(0))
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string, b []byte, sec int64, nsec uint32) {
		v := genCell(kind, i, fl, s, b, sec, nsec)
		other := genCell(kind+1, i, fl, s, b, sec, nsec)
		rows := []sqlengine.Row{{v, other, sqlengine.Null()}, {other, v, v}}
		rs := &sqlengine.ResultSet{Columns: []string{"a", "b", "c"}, Rows: rows}

		// Binary row frame.
		back, err := DecodeRowsBinary(AppendRowsBinary(nil, rows))
		if err != nil {
			t.Fatal(err)
		}
		checkRows(t, "binary frame", back, rows)

		// XML-RPC result and chunk documents, cell-direct and binary.
		xmlRows := make([]sqlengine.Row, len(rows))
		for r, row := range rows {
			for _, c := range row {
				xmlRows[r] = append(xmlRows[r], overXML(c))
			}
		}
		for _, tc := range []struct {
			name    string
			payload map[string]interface{}
			want    []sqlengine.Row
			decode  func(*clarens.Decoder) (interface{}, error)
		}{
			{"xml result", WireResult(rs), xmlRows, decodeResultRows},
			{"binary result", wireResultBinary(rs), rows, decodeResultRows},
			{"xml chunk", WireChunk(rows, true), xmlRows, decodeChunkRows},
			{"binary chunk", wireChunkBinary(rows, true), rows, decodeChunkRows},
		} {
			doc, err := clarens.MarshalResponse(tc.payload)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got, err := clarens.DecodeResponse(bytes.NewReader(doc), tc.decode)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			checkRows(t, tc.name, got.([]sqlengine.Row), tc.want)
		}

		// The gob frames of the tcp:// member transport.
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(wire.Request{Op: "query", Params: rows[0]}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(wire.Response{Columns: rs.Columns, Rows: rows}); err != nil {
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
		checkRows(t, "gob params", []sqlengine.Row{req.Params}, rows[:1])
		checkRows(t, "gob rows", resp.Rows, rows)

		// The fuzzed bytes as a frame.
		if got, err := DecodeRowsBinary(b); err == nil {
			again, err := DecodeRowsBinary(AppendRowsBinary(nil, got))
			if err != nil {
				t.Fatalf("re-encoded frame: %v", err)
			}
			checkRows(t, "re-encoded frame", again, got)
		}
	})
}

func decodeResultRows(d *clarens.Decoder) (interface{}, error) {
	rs, err := DecodeResultFrom(d)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

func decodeChunkRows(d *clarens.Decoder) (interface{}, error) {
	c, err := DecodeChunkFrom(d)
	if err != nil {
		return nil, err
	}
	if !c.Done {
		return nil, errChunkNotDone
	}
	return c.Rows, nil
}

var errChunkNotDone = errors.New("chunk lost its done flag")

func checkRows(t *testing.T, via string, got, want []sqlengine.Row) {
	t.Helper()
	if !identicalRows(got, want) {
		t.Fatalf("%s:\n got  %v\n want %v", via, got, want)
	}
}
