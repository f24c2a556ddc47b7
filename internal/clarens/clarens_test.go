package clarens

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gridrdb/internal/netsim"
)

func startServer(t *testing.T, open bool) (*Server, *Client) {
	t.Helper()
	s := NewServer(open)
	url, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, NewClient(url)
}

func TestEchoRoundTrip(t *testing.T) {
	_, c := startServer(t, true)
	res, err := c.Call("system.echo", int64(42), "hello", 3.5, true, []interface{}{int64(1), "two"})
	if err != nil {
		t.Fatal(err)
	}
	arr, ok := res.([]interface{})
	if !ok || len(arr) != 5 {
		t.Fatalf("echo = %#v", res)
	}
	if arr[0].(int64) != 42 || arr[1].(string) != "hello" || arr[2].(float64) != 3.5 || arr[3].(bool) != true {
		t.Fatalf("echo values: %#v", arr)
	}
	inner := arr[4].([]interface{})
	if inner[0].(int64) != 1 || inner[1].(string) != "two" {
		t.Fatalf("nested array: %#v", inner)
	}
}

func TestStructAndSpecialValues(t *testing.T) {
	s, c := startServer(t, true)
	s.Register("test.struct", func(_ context.Context, _ *CallContext, args []interface{}) (interface{}, error) {
		return map[string]interface{}{
			"n":    nil,
			"when": time.Date(2005, 6, 15, 12, 0, 0, 0, time.UTC),
			"blob": []byte{1, 2, 255},
			"str":  "<&> escaped",
		}, nil
	})
	res, err := c.Call("test.struct")
	if err != nil {
		t.Fatal(err)
	}
	m := res.(map[string]interface{})
	if m["n"] != nil {
		t.Errorf("nil: %#v", m["n"])
	}
	if tm, ok := m["when"].(time.Time); !ok || tm.Year() != 2005 {
		t.Errorf("time: %#v", m["when"])
	}
	if b, ok := m["blob"].([]byte); !ok || len(b) != 3 || b[2] != 255 {
		t.Errorf("blob: %#v", m["blob"])
	}
	if m["str"].(string) != "<&> escaped" {
		t.Errorf("escaping: %q", m["str"])
	}
}

func TestFaults(t *testing.T) {
	s, c := startServer(t, true)
	s.Register("test.fail", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) {
		return nil, fmt.Errorf("boom")
	})
	_, err := c.Call("test.fail")
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultApplication || !strings.Contains(f.Message, "boom") {
		t.Fatalf("err = %v", err)
	}
	_, err = c.Call("no.such.method")
	if !errors.As(err, &f) || f.Code != FaultNoMethod {
		t.Fatalf("missing method err = %v", err)
	}
}

func TestAuthentication(t *testing.T) {
	s, c := startServer(t, false)
	s.AddUser("cms", "secret")
	s.Register("test.whoami", func(_ context.Context, call *CallContext, _ []interface{}) (interface{}, error) {
		return call.User, nil
	})
	// Unauthenticated call rejected.
	_, err := c.Call("test.whoami")
	var f *Fault
	if !errors.As(err, &f) || f.Code != FaultAuth {
		t.Fatalf("unauthenticated err = %v", err)
	}
	// Bad credentials rejected.
	if err := c.LoginContext(context.Background(), "cms", "wrong"); err == nil {
		t.Fatal("bad login accepted")
	}
	if err := c.LoginContext(context.Background(), "cms", "secret"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Call("test.whoami")
	if err != nil {
		t.Fatal(err)
	}
	if res.(string) != "cms" {
		t.Fatalf("whoami = %v", res)
	}
}

func TestListMethods(t *testing.T) {
	s, c := startServer(t, true)
	s.Register("custom.m", func(_ context.Context, _ *CallContext, _ []interface{}) (interface{}, error) { return nil, nil })
	res, err := c.Call("system.listMethods")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, v := range res.([]interface{}) {
		names[v.(string)] = true
	}
	if !names["system.echo"] || !names["custom.m"] {
		t.Fatalf("methods = %v", names)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(s string, i int64, fl float64, b bool) bool {
		if fl != fl {
			return true
		}
		// Strip invalid XML runes (control chars) that no real client
		// would send.
		clean := strings.Map(func(r rune) rune {
			if r < 0x20 && r != '\t' && r != '\n' && r != '\r' {
				return -1
			}
			if r == 0xFFFD || !validXMLRune(r) {
				return -1
			}
			return r
		}, s)
		data, err := MarshalCall("m", []interface{}{clean, i, fl, b})
		if err != nil {
			return false
		}
		method, args, err := UnmarshalCall(data)
		if err != nil || method != "m" || len(args) != 4 {
			return false
		}
		return args[0].(string) == clean && args[1].(int64) == i && args[2].(float64) == fl && args[3].(bool) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func validXMLRune(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

func TestMarshalFaultParses(t *testing.T) {
	data := MarshalFault(&Fault{Code: 7, Message: "nope"})
	_, err := UnmarshalResponse(data)
	var f *Fault
	if !errors.As(err, &f) || f.Code != 7 || f.Message != "nope" {
		t.Fatalf("fault round trip: %v", err)
	}
}

func TestClientNetsimCharging(t *testing.T) {
	_, c := startServer(t, true)
	clock := &netsim.Clock{}
	c.Profile = &netsim.Profile{Name: "t", RTT: time.Millisecond}
	c.Clock = clock
	if _, err := c.Call("system.echo", "x"); err != nil {
		t.Fatal(err)
	}
	if clock.Simulated() < time.Millisecond {
		t.Fatalf("charged %v", clock.Simulated())
	}
}

func TestBadPayloads(t *testing.T) {
	if _, _, err := UnmarshalCall([]byte("<bogus/>")); err == nil {
		t.Error("bogus call parsed")
	}
	if _, err := UnmarshalResponse([]byte("not xml at all")); err == nil {
		t.Error("non-xml response parsed")
	}
	if _, _, err := UnmarshalCall([]byte("<methodCall><params/></methodCall>")); err == nil {
		t.Error("call without methodName parsed")
	}
}
