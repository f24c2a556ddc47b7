package clarens

// Differential fuzzing of the byte-scanning Decoder against its oracles:
// for any input, the two must agree — both succeed with deeply equal
// values, or both fail — and neither may panic. The generic value family
// (FuzzUnmarshalCall, FuzzRoundTrip, FuzzEncodeDecode) is checked against
// the tree decoder in tree_test.go, which parses with encoding/xml, so the
// scanner's acceptance set (prolog, PIs, comments, DOCTYPE, CDATA,
// entities, CR normalisation, attributes, namespace prefixes, UTF-8 and
// Char-range checks) is pinned to encoding/xml's. The row-aware primitives
// (FuzzDecodeRows) are checked against the encoding/xml token walker in
// decode_oracle_test.go.

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// fuzzSeedValues is a value-family exemplar used to build seed documents.
var fuzzSeedValues = []interface{}{
	nil,
	true,
	false,
	int64(-42),
	int64(1 << 40),
	3.14159,
	"plain",
	"esc <&> \"quoted\" 'apos'\r\n\ttext",
	time.Date(2005, 6, 15, 12, 30, 45, 0, time.UTC),
	[]byte{0, 1, 2, 254, 255},
	[]interface{}{int64(1), "two", []interface{}{3.0, nil}},
	map[string]interface{}{"a": int64(1), "b": "x", "nested": map[string]interface{}{"c": false}},
}

func FuzzUnmarshalCall(f *testing.F) {
	seed, err := MarshalCall("dataaccess.query", fuzzSeedValues)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("<methodCall><methodName>m</methodName></methodCall>"))
	f.Add([]byte("<methodCall><params><param><value><i8>7</i8></value></param></params><methodName>late</methodName></methodCall>"))
	f.Add([]byte("<methodCall><methodName>m</methodName><params><param><value><array><data><value/><value><boolean>1</boolean></value></data></array></value></param></params></methodCall>"))
	f.Add([]byte("<methodCall><methodName>m</methodName><params><param><value><struct><member><value><i8>1</i8></value><name>swapped</name></member></struct></value></param></params></methodCall>"))
	f.Add([]byte("<bogus/>"))
	f.Add([]byte("<methodCall><params/></methodCall>"))
	f.Add([]byte("<methodCall><methodName>m</methodName><params><param><value><i8>zz</i8></value></param></params></methodCall>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tm, ta, terr := unmarshalCallTree(data)
		sm, sa, serr := UnmarshalCall(data)
		if (terr == nil) != (serr == nil) {
			t.Fatalf("decoders disagree on validity:\n tree: %v\n stream: %v\n input: %q", terr, serr, data)
		}
		if terr != nil {
			return
		}
		if tm != sm {
			t.Fatalf("method mismatch: tree %q, stream %q", tm, sm)
		}
		if !sameValue(ta, sa) {
			t.Fatalf("args mismatch:\n tree:   %#v\n stream: %#v\n input: %q", ta, sa, data)
		}
	})
}

func FuzzRoundTrip(f *testing.F) {
	respSeed := func(v interface{}) []byte {
		data, err := MarshalResponse(v)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, v := range fuzzSeedValues {
		f.Add(respSeed(v))
	}
	f.Add(MarshalFault(&Fault{Code: 103, Message: "boom"}))
	f.Add([]byte("<methodResponse/>"))
	f.Add([]byte("<methodResponse><params/></methodResponse>"))
	f.Add([]byte("<methodResponse><params><param><value><dateTime.iso8601>20050615T12:30:45</dateTime.iso8601></value></param></params></methodResponse>"))
	f.Add([]byte("<methodResponse><params><param><value><i8>1</i8></value></param></params><fault><value><struct><member><name>faultCode</name><value><i8>9</i8></value></member></struct></value></fault></methodResponse>"))
	f.Add([]byte("<methodResponse><params><param><value><i8>zz</i8></value></param></params><fault><value><struct><member><name>faultCode</name><value><i8>9</i8></value></member></struct></value></fault></methodResponse>"))
	f.Add([]byte("<methodResponse><fault><value>plain</value></fault></methodResponse>"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tv, terr := unmarshalResponseTree(data)
		sv, serr := UnmarshalResponse(data)
		if (terr == nil) != (serr == nil) {
			t.Fatalf("decoders disagree on validity:\n tree: %v\n stream: %v\n input: %q", terr, serr, data)
		}
		// Read a byte at a time, the scanner refills its window at every
		// offset and must decode the same.
		ov, oerr := decodeResponseStream(iotest.OneByteReader(bytes.NewReader(data)), nil)
		if (oerr == nil) != (serr == nil) || !sameValue(ov, sv) ||
			oerr != nil && reflect.TypeOf(oerr) != reflect.TypeOf(serr) {
			t.Fatalf("byte-at-a-time read differs:\n whole: %#v, %v\n bytewise: %#v, %v\n input: %q", sv, serr, ov, oerr, data)
		}
		if terr != nil {
			// When both fail as faults, the fault must be identical: a
			// fault document is a valid response, not a parse failure.
			tf, tok := terr.(*Fault)
			sf, sok := serr.(*Fault)
			if tok != sok {
				t.Fatalf("fault-ness mismatch:\n tree: %v\n stream: %v\n input: %q", terr, serr, data)
			}
			if tok && (tf.Code != sf.Code || tf.Message != sf.Message) {
				t.Fatalf("fault mismatch:\n tree: %v\n stream: %v", terr, serr)
			}
			return
		}
		if !sameValue(tv, sv) {
			t.Fatalf("value mismatch:\n tree:   %#v\n stream: %#v\n input: %q", tv, sv, data)
		}
	})
}

// FuzzEncodeDecode drives the streaming encoder from primitive inputs and
// checks the document round-trips through the Decoder and the tree decoder
// identically.
func FuzzEncodeDecode(f *testing.F) {
	f.Add("s", int64(1), 2.5, true, []byte("b"))
	f.Add("<&>\r\n", int64(-9), -0.0, false, []byte{})
	f.Fuzz(func(t *testing.T, s string, i int64, fl float64, b bool, raw []byte) {
		if fl != fl {
			return // NaN does not round-trip through %g by design
		}
		args := []interface{}{s, i, fl, b, raw,
			map[string]interface{}{"k": s, "i": i},
			[]interface{}{s, i},
		}
		data, err := MarshalCall("m", args)
		if err != nil {
			t.Fatal(err)
		}
		tm, ta, terr := unmarshalCallTree(data)
		sm, sa, serr := UnmarshalCall(data)
		if terr != nil || serr != nil {
			// Strings with XML-invalid runes become U+FFFD on encode and
			// still parse; any parse failure here must at least agree.
			if (terr == nil) != (serr == nil) {
				t.Fatalf("decoders disagree: tree %v, stream %v", terr, serr)
			}
			return
		}
		if tm != sm || !reflect.DeepEqual(ta, sa) {
			t.Fatalf("round-trip mismatch:\n tree:   %#v\n stream: %#v", ta, sa)
		}
	})
}

// sameValue is reflect.DeepEqual over the generic value family, except
// that doubles compare by bits: a decoded NaN equals itself.
func sameValue(a, b interface{}) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []interface{}:
		y, ok := b.([]interface{})
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]interface{}:
		y, ok := b.(map[string]interface{})
		if !ok || len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// rowDecoder is the row-aware surface the Decoder and the token-walker
// oracle share.
type rowDecoder[D any] interface {
	Scalar() (Scalar, error)
	SkipValue() error
	DecodeArray(func(D) error) error
	DecodeStruct(func(string, D) error) error
}

// decodeRowsWith decodes a dataaccess result or chunk payload ({columns,
// rows|rowsb} or {rows|rowsb, done}) the way its row decoders do: "rows"
// as an array of arrays of scalars, "columns" as an array of scalars, any
// other member as one scalar (a one-cell row); "skip" is skipped.
func decodeRowsWith[D rowDecoder[D]](d D) ([][]Scalar, error) {
	var out [][]Scalar
	err := d.DecodeStruct(func(name string, d D) error {
		switch name {
		case "rows":
			return d.DecodeArray(func(d D) error {
				row := []Scalar{}
				err := d.DecodeArray(func(d D) error {
					sc, err := d.Scalar()
					row = append(row, sc)
					return err
				})
				out = append(out, row)
				return err
			})
		case "columns":
			var cols []Scalar
			err := d.DecodeArray(func(d D) error {
				sc, err := d.Scalar()
				cols = append(cols, sc)
				return err
			})
			out = append(out, cols)
			return err
		case "skip":
			return d.SkipValue()
		}
		sc, err := d.Scalar()
		out = append(out, []Scalar{sc})
		return err
	})
	return out, err
}

// sameScalars compares decoded cells, NaN payloads included.
func sameScalars(a, b [][]Scalar) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Kind != y.Kind || x.Bool != y.Bool || x.Int != y.Int || x.Str != y.Str ||
				math.Float64bits(x.Float) != math.Float64bits(y.Float) ||
				!x.Time.Equal(y.Time) || x.Time.Location() != y.Time.Location() ||
				!bytes.Equal(x.Bytes, y.Bytes) || (x.Bytes == nil) != (y.Bytes == nil) {
				return false
			}
		}
	}
	return true
}

// rowSeedDocs are result and chunk documents as dataaccess renders them —
// plain XML rows and base64 rowsb frames — plus hand-mutated variants that
// exercise the XML profile the scanner must accept or reject exactly as
// encoding/xml does.
func rowSeedDocs(tb testing.TB) [][]byte {
	cells := []interface{}{int64(7), -2.5, "x<&>\r\n", nil, true,
		time.Date(2005, 6, 15, 12, 0, 1, 0, time.UTC), []byte{1, 2, 255}}
	marshal := func(v map[string]interface{}) []byte {
		doc, err := MarshalResponse(v)
		if err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	result := marshal(map[string]interface{}{
		"columns": []interface{}{"a", "b", "c", "d", "e", "f", "g"},
		"rows":    []interface{}{cells, cells[:3], []interface{}{}},
		"skip":    map[string]interface{}{"route": "remote"},
	})
	chunk := marshal(map[string]interface{}{"rows": []interface{}{cells, cells}, "done": false})
	frame := []byte{'R', 1, 1, 2, 1, 14, 3, 1, 'z'}
	resultb := marshal(map[string]interface{}{"columns": []interface{}{"a", "b"}, "rowsb": frame})
	chunkb := marshal(map[string]interface{}{"rowsb": frame, "done": true})
	docs := [][]byte{result, chunk, resultb, chunkb}
	r := func(doc []byte, old, new string) []byte {
		if !bytes.Contains(doc, []byte(old)) {
			tb.Fatalf("seed mutation: %q not in %s", old, doc)
		}
		return []byte(strings.Replace(string(doc), old, new, 1))
	}
	docs = append(docs,
		r(chunk, "<i8>7</i8>", "<i4> 7 </i4>"),
		r(chunk, "<i8>7</i8>", "<ns:i8 xmlns:ns='u'>7</ns:i8>"),
		r(chunk, "<i8>7</i8>", "<a:b:i8>7</a:b:i8>"),
		r(chunk, "<i8>7</i8>", "<i8>7</i4>"),
		r(chunk, "<i8>7</i8>", "<i8 a=1>7</i8>"),
		r(chunk, "<i8>7</i8>", "<i8 a=\"1&amp;\" b='&#x3c;'>7</i8>"),
		r(chunk, "<i8>7</i8>", "<i8><!-- c -->7<?pi x?></i8>"),
		r(chunk, "<i8>7</i8>", "<i8><![CDATA[7]]></i8>"),
		r(chunk, "<i8>7</i8>", "<i8>&#55;</i8>"),
		r(chunk, "<i8>7</i8>", "<i8>&foo;</i8>"),
		r(chunk, "<i8>7</i8>", "<i8>7]]></i8>"),
		r(chunk, "<string>", "<string>\r\n\r&#13;\t"),
		r(chunk, "<string>", "<string>\xff"),
		r(chunk, "<string>", "<string>&#0;"),
		r(chunk, "<string>", "<string>&#xD800;\u00e9\U0001F600"),
		r(chunk, "<string>", "<string>\x01"),
		r(result, "<string>a</string>", "<string>a\x01</string>"),
		r(result, "<string>a</string>", "<string>a&foo;b</string>"),
		r(result, "<string>a</string>", "<string>a&lt</string>"),
		r(result, "<string>a</string>", "<string>a\r\nb\rc</string>"),
		r(chunk, "<methodResponse>", "<!DOCTYPE m [<!ENTITY e 'v'>]><methodResponse>"),
		r(chunk, `<?xml version="1.0" encoding="UTF-8"?>`, `<?xml version="1.1"?>`),
		r(chunk, `<?xml version="1.0" encoding="UTF-8"?>`, `<?xml version='1.0' encoding='latin1'?>`),
		r(chunk, "<value><array><data><value>", "<value><array><data><value/><value>"),
		r(chunk, "</array></value></member>", "</array></value><value><i8>1</i8></value></member>"),
		r(chunk, "<boolean>1</boolean>", "<boolean/>"),
		r(chunk, "<double>-2.5</double>", "<double>NaN</double>"),
		r(chunk, "<double>-2.5</double>", "<double>1e400</double>"),
		chunk[:len(chunk)/2],
	)
	return docs
}

// FuzzDecodeRows decodes result and chunk documents through the Decoder's
// row-aware primitives and through the encoding/xml token walker they
// replaced: equal cells or a failure from each, and never a panic.
func FuzzDecodeRows(f *testing.F) {
	for _, doc := range rowSeedDocs(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := DecodeResponse(bytes.NewReader(data), func(d *Decoder) (interface{}, error) {
			return decodeRowsWith(d)
		})
		// Read a byte at a time, the scanner refills its window at every
		// offset and must decode the same.
		bytewise, berr := DecodeResponse(iotest.OneByteReader(bytes.NewReader(data)), func(d *Decoder) (interface{}, error) {
			return decodeRowsWith(d)
		})
		b, _ := bytewise.([][]Scalar)
		g, _ := got.([][]Scalar)
		if (berr == nil) != (gerr == nil) || (bytewise == nil) != (got == nil) || !sameScalars(b, g) {
			t.Fatalf("byte-at-a-time read differs:\n whole: %#v, %v\n bytewise: %#v, %v\n input: %q", got, gerr, bytewise, berr, data)
		}
		want, werr := decodeResponseTokens(bytes.NewReader(data), func(d *tokenDecoder) (interface{}, error) {
			return decodeRowsWith(d)
		})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decoders disagree on validity:\n token walker: %v\n scanner: %v\n input: %q", werr, gerr, data)
		}
		if gerr != nil {
			gf, gok := gerr.(*Fault)
			wf, wok := werr.(*Fault)
			if gok != wok || gok && *gf != *wf {
				t.Fatalf("fault mismatch:\n token walker: %v\n scanner: %v\n input: %q", werr, gerr, data)
			}
			return
		}
		w, _ := want.([][]Scalar)
		if (got == nil) != (want == nil) || !sameScalars(g, w) {
			t.Fatalf("cells differ:\n token walker: %#v\n scanner: %#v\n input: %q", want, got, data)
		}
	})
}
