package clarens

// Differential fuzzing of the streaming decoder against the legacy tree
// decoder it replaced: for any input, the two must agree — both succeed
// with deeply equal values, or both fail — and neither may panic. The tree
// codec is the reference semantics; the streaming walker deliberately
// reproduces its tolerances (first matching child wins, unknown siblings
// skipped).

import (
	"reflect"
	"testing"
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
		if !reflect.DeepEqual(ta, sa) {
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
		if !reflect.DeepEqual(tv, sv) {
			t.Fatalf("value mismatch:\n tree:   %#v\n stream: %#v\n input: %q", tv, sv, data)
		}
	})
}

// FuzzEncodeDecode drives the streaming encoder from primitive inputs and
// checks the document round-trips through both decoders identically.
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
