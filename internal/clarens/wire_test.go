package clarens

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"gridrdb/internal/leaktest"
)

// TestMarshalDeterministicSortedStruct pins the satellite bugfix: struct
// members encode in sorted name order, so the same value always renders
// the same bytes (map iteration order used to leak into the document).
func TestMarshalDeterministicSortedStruct(t *testing.T) {
	v := map[string]interface{}{
		"zeta":  int64(1),
		"alpha": "a",
		"mid":   true,
		"beta":  2.5,
	}
	first, err := MarshalResponse(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := MarshalResponse(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("non-deterministic document:\n%s\n%s", first, again)
		}
	}
	doc := string(first)
	order := []string{"<name>alpha</name>", "<name>beta</name>", "<name>mid</name>", "<name>zeta</name>"}
	last := -1
	for _, m := range order {
		idx := strings.Index(doc, m)
		if idx < 0 || idx < last {
			t.Fatalf("members not sorted: %s", doc)
		}
		last = idx
	}
}

// TestMarshalGolden pins the exact document bytes for a representative
// value (enabled by deterministic member order).
func TestMarshalGolden(t *testing.T) {
	v := map[string]interface{}{
		"b":    []byte{1, 2, 255},
		"a":    int64(-5),
		"when": time.Date(2005, 6, 15, 12, 0, 1, 0, time.UTC),
		"s":    "x<&>\n",
	}
	got, err := MarshalResponse(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<methodResponse><params><param><value><struct>` +
		`<member><name>a</name><value><i8>-5</i8></value></member>` +
		`<member><name>b</name><value><base64>AQL/</base64></value></member>` +
		`<member><name>s</name><value><string>x&lt;&amp;&gt;&#xA;</string></value></member>` +
		`<member><name>when</name><value><dateTime.iso8601>20050615T12:00:01</dateTime.iso8601></value></member>` +
		`</struct></value></param></params></methodResponse>`
	if string(got) != want {
		t.Fatalf("golden mismatch:\n got:  %s\n want: %s", got, want)
	}
}

// TestRequestBodyTooLarge pins the satellite bugfix: a request body over
// the cap faults with a distinct "too large" message instead of a
// confusing truncation parse error.
func TestRequestBodyTooLarge(t *testing.T) {
	old := maxBody
	maxBody = 4 << 10
	defer func() { maxBody = old }()

	_, c := startServer(t, true)
	_, err := c.Call("system.echo", strings.Repeat("x", 8<<10))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if f.Code != FaultParse || !strings.Contains(f.Message, "request body too large") {
		t.Fatalf("fault = %v", f)
	}
	// Under the cap still works.
	if _, err := c.Call("system.echo", strings.Repeat("x", 1<<10)); err != nil {
		t.Fatal(err)
	}
}

// TestResponseBodyTooLarge: the client applies the same cap to responses.
func TestResponseBodyTooLarge(t *testing.T) {
	old := maxBody
	maxBody = 4 << 10
	defer func() { maxBody = old }()

	s, c := startServer(t, true)
	s.Register("test.big", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		return strings.Repeat("y", 16<<10), nil
	})
	_, err := c.Call("test.big")
	if err == nil || !strings.Contains(err.Error(), "response body too large") {
		t.Fatalf("err = %v, want response-too-large", err)
	}
}

// TestLargeResponseStreams: a response over the buffering threshold is
// streamed (no Content-Length) and still decodes correctly end to end.
func TestLargeResponseStreams(t *testing.T) {
	s, c := startServer(t, true)
	big := strings.Repeat("z", responseFlushThreshold)
	s.Register("test.stream", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		return []interface{}{big, big, big}, nil
	})
	res, err := c.Call("test.stream")
	if err != nil {
		t.Fatal(err)
	}
	arr := res.([]interface{})
	if len(arr) != 3 || arr[2].(string) != big {
		t.Fatalf("streamed payload corrupted (len=%d)", len(arr))
	}
}

// TestScalarDecodePrimitives: the row-aware Scalar/DecodeArray/
// DecodeStruct primitives read every scalar kind off the wire.
func TestScalarDecodePrimitives(t *testing.T) {
	when := time.Date(2005, 6, 15, 12, 30, 45, 0, time.UTC)
	doc, err := MarshalResponse(map[string]interface{}{
		"cells": []interface{}{nil, int64(-42), 2.5, "s", true, when, []byte{9, 8}},
		"skip":  map[string]interface{}{"inner": int64(1)},
		"tag":   "done",
	})
	if err != nil {
		t.Fatal(err)
	}
	var cells []Scalar
	var tag string
	_, err = DecodeResponse(bytes.NewReader(doc), func(d *Decoder) (interface{}, error) {
		return nil, d.DecodeStruct(func(name string, d *Decoder) error {
			switch name {
			case "cells":
				return d.DecodeArray(func(d *Decoder) error {
					sc, err := d.Scalar()
					if err != nil {
						return err
					}
					cells = append(cells, sc)
					return nil
				})
			case "tag":
				sc, err := d.Scalar()
				tag = sc.Str
				return err
			default:
				return d.SkipValue()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if tag != "done" {
		t.Errorf("tag = %q", tag)
	}
	if len(cells) != 7 {
		t.Fatalf("cells = %d", len(cells))
	}
	checks := []struct {
		kind ScalarKind
		ok   bool
	}{
		{ScalarNil, cells[0].Kind == ScalarNil},
		{ScalarInt, cells[1].Int == -42},
		{ScalarFloat, cells[2].Float == 2.5},
		{ScalarString, cells[3].Str == "s"},
		{ScalarBool, cells[4].Bool},
		{ScalarTime, cells[5].Time.Equal(when)},
		{ScalarBytes, len(cells[6].Bytes) == 2 && cells[6].Bytes[0] == 9},
	}
	for i, c := range checks {
		if cells[i].Kind != c.kind || !c.ok {
			t.Errorf("cell %d = %#v", i, cells[i])
		}
	}
}

// TestFaultAfterMalformedParams: a fault element following a params whose
// value does not decode still wins — the streaming decoder resynchronizes
// past the broken param instead of misreading the token stream, matching
// the tree codec's fault-before-params resolution order.
func TestFaultAfterMalformedParams(t *testing.T) {
	doc := []byte(`<methodResponse>` +
		`<params><param><value><i8>not-a-number</i8></value></param></params>` +
		`<fault><value><struct>` +
		`<member><name>faultCode</name><value><i8>9</i8></value></member>` +
		`<member><name>faultString</name><value><string>later fault</string></value></member>` +
		`</struct></value></fault></methodResponse>`)
	for name, decode := range map[string]func([]byte) (interface{}, error){
		"stream": UnmarshalResponse,
		"tree":   unmarshalResponseTree,
	} {
		_, err := decode(doc)
		var f *Fault
		if !errors.As(err, &f) || f.Code != 9 || f.Message != "later fault" {
			t.Errorf("%s: err = %v, want fault 9 %q", name, err, "later fault")
		}
	}
	// Without the trailing fault the semantic error itself surfaces.
	noFault := []byte(`<methodResponse><params><param><value><i8>zz</i8></value></param></params></methodResponse>`)
	if _, err := UnmarshalResponse(noFault); err == nil || !strings.Contains(err.Error(), "bad integer") {
		t.Errorf("err = %v, want bad integer", err)
	}
}

// TestCallDecodeFault: a server fault still surfaces as *Fault when a
// custom result decoder is installed (the decoder must not run).
func TestCallDecodeFault(t *testing.T) {
	s, c := startServer(t, true)
	s.Register("test.fail", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		return nil, errors.New("nope")
	})
	ran := false
	_, err := c.CallDecodeContext(context.Background(), "test.fail", func(d *Decoder) (interface{}, error) {
		ran = true
		return d.Value()
	})
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultApplication {
		t.Fatalf("err = %v", err)
	}
	if ran {
		t.Error("result decoder ran on a fault response")
	}
}

// TestDecoderLargeTokens: tokens larger than the scanner's read window —
// a long comment, attribute and string, a base64 payload — grow the window
// instead of being cut, and a document read in small pieces decodes exactly
// as the encoding/xml tree decoder reads it whole.
func TestDecoderLargeTokens(t *testing.T) {
	long := strings.Repeat("a<&>\r\né", windowSize/4)
	blob := bytes.Repeat([]byte{0, 1, 254, 255}, windowSize/2)
	ints := make([]interface{}, 5000)
	for i := range ints {
		ints[i] = int64(i)
	}
	doc, err := MarshalResponse(map[string]interface{}{"long": long, "blob": blob, "ints": ints})
	if err != nil {
		t.Fatal(err)
	}
	doc = bytes.Replace(doc, []byte("<methodResponse>"),
		[]byte("<!--"+strings.Repeat("c", 2*windowSize)+"--><methodResponse a='"+strings.Repeat("v", windowSize)+"'>"), 1)
	want, err := unmarshalResponseTree(doc)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"whole":  bytes.NewReader(doc),
		"halves": iotest.HalfReader(bytes.NewReader(doc)),
		"bytes":  iotest.OneByteReader(bytes.NewReader(doc)),
	} {
		got, err := decodeResponseStream(r, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded value differs from the tree decoder's", name)
		}
	}
	if got := want.(map[string]interface{})["long"]; got != long {
		t.Fatalf("long string corrupted (len %d)", len(got.(string)))
	}
}

// UnmarshalCall parses a methodCall document into (method, args).
func UnmarshalCall(data []byte) (string, []interface{}, error) {
	return unmarshalCallStream(bytes.NewReader(data))
}

// UnmarshalResponse parses a methodResponse document, returning the result
// value or a *Fault error.
func UnmarshalResponse(data []byte) (interface{}, error) {
	return decodeResponseStream(bytes.NewReader(data), nil)
}

// Value decodes one generic <value> element into the XML-RPC interface{}
// family (the shape third-party payloads and the tree codec produce).
func (d *Decoder) Value() (interface{}, error) {
	if err := d.enterValue(); err != nil {
		return nil, err
	}
	return d.valueBody()
}

// TestMethodCallAllocBytes holds the methodCall parse behind every request
// — a point_lookup-sized dataaccess.query — to no more heap bytes than the
// encoding/xml decoder took for it (2 440 B): the read window is pooled,
// not allocated per call.
func TestMethodCallAllocBytes(t *testing.T) {
	if leaktest.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	call, err := MarshalCall("dataaccess.query", []interface{}{"SELECT * FROM ev_run100 WHERE event_id = 12345"})
	if err != nil {
		t.Fatal(err)
	}
	parse := func() {
		if _, _, err := UnmarshalCall(call); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parse()
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > 2440 {
		t.Fatalf("heap bytes per methodCall parse: %.0f (want <= 2440)", got)
	}
}
